// Package jl implements the Johnson–Lindenstrauss-type Gaussian random
// projection of Section III of the paper, mapping embedding vectors from the
// d-dimensional space S1 to the alpha-dimensional space S2 (alpha typically
// 3–6), together with the paper's small-alpha accuracy bounds (Theorems 1–3).
//
// The mapping is x -> (1/sqrt(alpha)) * A * x with A an alpha x d matrix of
// i.i.d. N(0,1) entries, so squared distances are preserved in expectation
// and the tail bounds of Theorem 1 hold for every alpha >= 1.
package jl

import (
	"fmt"
	"math"
	"math/rand"
)

// Transform is a fixed random projection from dimension D to dimension Alpha.
type Transform struct {
	d     int
	alpha int
	// a is the alpha x d projection matrix, row-major, already scaled by
	// 1/sqrt(alpha).
	a []float64
}

// New draws a projection matrix from R^d to R^alpha using the given seed.
// The same (d, alpha, seed) always produces the same transform, so a saved
// index remains valid across runs.
func New(d, alpha int, seed int64) *Transform {
	if d <= 0 || alpha <= 0 {
		panic(fmt.Sprintf("jl: invalid dimensions d=%d alpha=%d", d, alpha))
	}
	rng := rand.New(rand.NewSource(seed))
	t := &Transform{d: d, alpha: alpha, a: make([]float64, alpha*d)}
	scale := 1 / math.Sqrt(float64(alpha))
	for i := range t.a {
		t.a[i] = rng.NormFloat64() * scale
	}
	return t
}

// InDim returns the source dimensionality d (space S1).
func (t *Transform) InDim() int { return t.d }

// OutDim returns the target dimensionality alpha (space S2).
func (t *Transform) OutDim() int { return t.alpha }

// Apply projects x (length d) into S2, returning a new vector of length
// alpha.
func (t *Transform) Apply(x []float64) []float64 {
	out := make([]float64, t.alpha)
	t.ApplyInto(out, x)
	return out
}

// ApplyInto projects x into dst (length alpha) and returns dst.
func (t *Transform) ApplyInto(dst, x []float64) []float64 {
	if len(x) != t.d {
		panic(fmt.Sprintf("jl: input dimension %d, want %d", len(x), t.d))
	}
	if len(dst) != t.alpha {
		panic(fmt.Sprintf("jl: output dimension %d, want %d", len(dst), t.alpha))
	}
	for i := 0; i < t.alpha; i++ {
		row := t.a[i*t.d : (i+1)*t.d]
		var s float64
		for j, v := range x {
			s += row[j] * v
		}
		dst[i] = s
	}
	return dst
}

// ApplyAll projects n vectors stored row-major in xs (stride d) into a new
// row-major array of stride alpha. It is the bulk entry point used when
// transforming every entity embedding before indexing.
func (t *Transform) ApplyAll(xs []float64) []float64 {
	if len(xs)%t.d != 0 {
		panic("jl: ApplyAll input is not a multiple of d")
	}
	n := len(xs) / t.d
	out := make([]float64, n*t.alpha)
	for i := 0; i < n; i++ {
		t.ApplyInto(out[i*t.alpha:(i+1)*t.alpha], xs[i*t.d:(i+1)*t.d])
	}
	return out
}

// DeltaUpper is the Theorem 1 upper-tail bound: for any eps > 0,
//
//	Pr[l2 >= sqrt(1+eps) * l1] <= (sqrt(1+eps) / e^(eps/2))^alpha.
func DeltaUpper(eps float64, alpha int) float64 {
	if eps <= 0 {
		return 1
	}
	return math.Pow(math.Sqrt(1+eps)/math.Exp(eps/2), float64(alpha))
}

// DeltaLower is the Theorem 1 lower-tail bound: for 0 < eps < 1,
//
//	Pr[l2 <= sqrt(1-eps) * l1] <= (sqrt(1-eps) * e^(eps/2))^alpha.
func DeltaLower(eps float64, alpha int) float64 {
	if eps <= 0 || eps >= 1 {
		return 1
	}
	return math.Pow(math.Sqrt(1-eps)*math.Exp(eps/2), float64(alpha))
}

// TopKRecallLowerBound is the Theorem 2 success probability: given the true
// top-k distances rStar (ascending, rStar[k-1] is the kth smallest) and the
// query-expansion factor (1+eps), FindTopKEntities misses no true top-k
// entity with probability at least
//
//	prod_i [ 1 - m_i^alpha / e^(alpha (m_i^2 - 1) / 2) ],  m_i = rStar[k-1]/rStar[i] * (1+eps).
func TopKRecallLowerBound(rStar []float64, eps float64, alpha int) float64 {
	p := 1.0
	k := len(rStar)
	if k == 0 {
		return 1
	}
	rk := rStar[k-1]
	for _, ri := range rStar {
		if ri <= 0 {
			continue // the query point itself; always found
		}
		m := rk / ri * (1 + eps)
		p *= 1 - missTerm(m, alpha)
	}
	if p < 0 {
		return 0
	}
	return p
}

// ExpectedTopKMisses is Theorem 2's expected number of true top-k entities
// missing from the returned set: sum_i m_i^alpha / e^(alpha (m_i^2 - 1)/2).
func ExpectedTopKMisses(rStar []float64, eps float64, alpha int) float64 {
	k := len(rStar)
	if k == 0 {
		return 0
	}
	rk := rStar[k-1]
	var s float64
	for _, ri := range rStar {
		if ri <= 0 {
			continue
		}
		s += missTerm(rk/ri*(1+eps), alpha)
	}
	return s
}

// missTerm computes m^alpha / e^(alpha (m^2-1)/2), clamped to [0,1]: the
// probability that one true top-k entity at relative distance ratio m falls
// outside the final query ball.
func missTerm(m float64, alpha int) float64 {
	if m <= 0 {
		return 1
	}
	a := float64(alpha)
	v := math.Exp(a*math.Log(m) - a*(m*m-1)/2)
	if v > 1 {
		return 1
	}
	return v
}

// FalsePositiveBound is Theorem 3: for the final query region, a point whose
// S1 distance from q is at least rk * (1+eps)/(1-eps') enters the region with
// probability at most (1-eps')^alpha * e^(alpha (eps' - eps'^2/2)).
func FalsePositiveBound(epsPrime float64, alpha int) float64 {
	if epsPrime <= 0 || epsPrime >= 1 {
		return 1
	}
	a := float64(alpha)
	v := math.Pow(1-epsPrime, a) * math.Exp(a*(epsPrime-epsPrime*epsPrime/2))
	if v > 1 {
		return 1
	}
	return v
}
