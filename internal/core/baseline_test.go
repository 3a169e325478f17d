package core

import (
	"math"
	"math/rand"
	"testing"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg"
)

// TestExactScansUseModelNorm: the exact scans measure S1 under the model's
// norm, as the indexed paths do. An epsilon of 50 lets the indexed top-k
// examine every point that could enter it, so TopKNoIndex must return the
// same entities at the same distances, bit for bit; and AggregateExact's
// ball must hold exactly the entities within d1/pTau of the query point
// under that norm.
func TestExactScansUseModelNorm(t *testing.T) {
	for _, norm := range []embedding.Norm{embedding.L2, embedding.L1} {
		const n, rels = 600, 2
		rng := rand.New(rand.NewSource(3))
		g, m := syntheticGraph(rng, n, 16, 8, rels, 0.5, norm)
		p := DefaultParams()
		p.Eps = 50
		eng, err := NewEngine(g, m, Crack, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			dir, ent, rel := Dir(i%2), kg.EntityID(rng.Intn(n)), kg.RelationID(rng.Intn(rels))
			got, err := eng.TopK(dir, ent, rel, 5)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.TopKNoIndex(dir, ent, rel, 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Predictions) != len(want.Predictions) {
				t.Fatalf("norm %d query %d: %d indexed answers, %d scanned", norm, i, len(got.Predictions), len(want.Predictions))
			}
			for j, w := range want.Predictions {
				if gp := got.Predictions[j]; gp.Entity != w.Entity || math.Float64bits(gp.Dist) != math.Float64bits(w.Dist) {
					t.Fatalf("norm %d query %d rank %d: indexed %d at %v, scanned %d at %v", norm, i, j, gp.Entity, gp.Dist, w.Entity, w.Dist)
				}
			}

			agg, err := eng.AggregateExact(dir, ent, rel, AggQuery{Kind: Count})
			if err != nil {
				t.Fatal(err)
			}
			q1 := m.TailQueryPoint(ent, rel)
			if dir == DirHead {
				q1 = m.HeadQueryPoint(ent, rel)
			}
			rTau := want.Predictions[0].Dist / p.PTau
			inBall := 0
			for id := 0; id < n; id++ {
				if kg.EntityID(id) != ent && eng.s1Dist(q1, kg.EntityID(id)) <= rTau {
					inBall++
				}
			}
			if agg.BallSize != inBall {
				t.Fatalf("norm %d query %d: exact ball of %d entities, %d within %v", norm, i, agg.BallSize, inBall, rTau)
			}
		}
	}
}
