package rtree

import "math"

// Packed columnar coordinate storage. The exact float64 rows of the
// PointSet stay the source of truth; EnablePacked mirrors them as
// contiguous per-dimension float32 columns, halving the bytes the distance
// inner loop touches. The columns are used only as a conservative
// prefilter: a point is skipped without ever reading its exact row when its
// approximate squared distance provably exceeds the caller's bound, and
// every survivor is re-ranked in exact float64 arithmetic. Tree structure
// (sort orders, cracking, rectangle tests) never consults the mirror, so a
// packed and an unpacked index produce byte-identical structures and
// answers.
//
// Exactness argument. Each stored coordinate p̂ = float32(p) satisfies
// |p̂ - p| <= E0 with E0 = maxAbs * 2^-24 (maxAbs is the largest coordinate
// magnitude in the set; float32 rounds to within half an ulp, and we use
// the full ulp to be generous). The approximate squared distance is
// accumulated in float64 from float64(p̂) values, so quantization is the
// only error source:
//
//	|approx - exact| = |Σ (p̂_d - q_d)² - (p_d - q_d)²|
//	                 = |Σ (p̂_d - p_d)(p̂_d + p_d - 2 q_d)|
//	                <= E0 · Σ (|p̂_d - q_d| + |p_d - q_d|)
//	                <= E0 · √dim · (√approx + √exact)   (Cauchy-Schwarz).
//
// If exact <= bound then √approx <= √exact + E0·√dim (subtract the two
// sides of the display above), hence
//
//	approx <= bound + 2·E0·√(dim·bound) + dim·E0².
//
// slack() doubles both terms for headroom against rounding while computing
// the bound itself; skipping only when approx > bound + slack therefore
// never skips a point whose exact distance is within the bound.

// gatherChunk is the prefilter batch size: big enough to amortize the
// per-chunk bookkeeping, small enough to live on the stack.
const gatherChunk = 128

// packedCols is the float32 mirror: cols[d][i] = float32 of coordinate d of
// point i, one contiguous column per dimension.
type packedCols struct {
	cols   [][]float32
	maxAbs float64 // largest |coordinate| seen, for the error bound
}

// EnablePacked builds the packed float32 mirror of the current points.
// Idempotent. Points appended later are mirrored automatically.
func (ps *PointSet) EnablePacked() {
	if ps.packed != nil {
		return
	}
	pc := &packedCols{cols: make([][]float32, ps.Dim)}
	n := ps.N()
	for d := range pc.cols {
		pc.cols[d] = make([]float32, n)
	}
	for i := 0; i < n; i++ {
		row := ps.At(int32(i))
		for d, v := range row {
			pc.cols[d][i] = float32(v)
			if a := math.Abs(v); a > pc.maxAbs {
				pc.maxAbs = a
			}
		}
	}
	ps.packed = pc
}

// Packed reports whether the packed mirror is enabled.
func (ps *PointSet) Packed() bool { return ps.packed != nil }

// PackedBytes returns the memory held by the packed mirror (0 when
// disabled).
func (ps *PointSet) PackedBytes() int {
	if ps.packed == nil {
		return 0
	}
	sz := 0
	for _, col := range ps.packed.cols {
		sz += cap(col) * 4
	}
	return sz
}

func (pc *packedCols) appendPoint(coords []float64) {
	for d, v := range coords {
		pc.cols[d] = append(pc.cols[d], float32(v))
		if a := math.Abs(v); a > pc.maxAbs {
			pc.maxAbs = a
		}
	}
}

// slack returns the additive margin under which the float32 prefilter may
// not skip a point (see the package comment's derivation, doubled for
// headroom). Infinite bounds yield an infinite margin, which disables
// skipping — every point is re-ranked exactly, still correct.
func (pc *packedCols) slack(dim int, bound float64) float64 {
	e0 := pc.maxAbs * (1.0 / (1 << 24))
	return 4*e0*math.Sqrt(float64(dim)*bound) + 2*float64(dim)*e0*e0
}

// gather fills out[j] with the approximate squared distance of point
// ids[j] to q, scanning the packed columns dimension-major so each column
// is walked once per chunk.
func (pc *packedCols) gather(ids []int32, q []float64, out []float64) {
	for j := range out {
		out[j] = 0
	}
	for d, col := range pc.cols {
		qd := q[d]
		for j, id := range ids {
			dv := float64(col[id]) - qd
			out[j] += dv * dv
		}
	}
}

// appendWithin appends (sqDist, id) to dst for every given id whose exact
// squared distance to q is at most bound, preserving the order of ids. With
// the packed mirror enabled, points provably outside the bound are skipped
// from the float32 columns without touching their exact rows; survivors are
// re-ranked exactly, so the appended pairs are identical with and without
// the mirror. This is the distance inner loop of every walk.
func (ps *PointSet) appendWithin(dst []walkPoint, ids []int32, q []float64, bound float64) []walkPoint {
	pc := ps.packed
	if pc == nil || len(ids) < 16 {
		for _, id := range ids {
			if d := ps.SqDistTo(id, q); d <= bound {
				dst = append(dst, walkPoint{d: d, id: id})
			}
		}
		return dst
	}
	cutoff := bound + pc.slack(ps.Dim, bound)
	var buf [gatherChunk]float64
	for start := 0; start < len(ids); start += gatherChunk {
		end := min(start+gatherChunk, len(ids))
		chunk := ids[start:end]
		approx := buf[:len(chunk)]
		pc.gather(chunk, q, approx)
		for j, id := range chunk {
			if approx[j] > cutoff {
				continue
			}
			if d := ps.SqDistTo(id, q); d <= bound {
				dst = append(dst, walkPoint{d: d, id: id})
			}
		}
	}
	return dst
}
