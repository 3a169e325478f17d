package experiments

import (
	"math/rand"

	"vkgraph/internal/core"
	"vkgraph/internal/kg"
)

// Query is one workload item: as in the paper's setup, either a tail query
// (Dir = core.DirTail: given head entity E and relation R, find top-k
// tails) or a head query (core.DirHead: given tail entity E and relation R,
// find top-k heads).
type Query struct {
	E   kg.EntityID
	R   kg.RelationID
	Dir core.Dir
}

// Workload samples n queries by drawing random triples of the graph and
// querying either side, systematically exploring the space of queried
// embedding points (h+r or t-r) as the paper does.
func Workload(g *kg.Graph, n int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	triples := g.Triples()
	out := make([]Query, n)
	for i := range out {
		tr := triples[rng.Intn(len(triples))]
		if rng.Intn(2) == 0 {
			out[i] = Query{E: tr.H, R: tr.R, Dir: core.DirTail}
		} else {
			out[i] = Query{E: tr.T, R: tr.R, Dir: core.DirHead}
		}
	}
	return out
}

// RelationWorkload samples n queries restricted to one relation, for the
// H2-ALSH comparison: tail queries (user -> items) only, since collaborative
// filtering predicts items for users.
func RelationWorkload(g *kg.Graph, rel kg.RelationID, n int, seed int64) []Query {
	rng := rand.New(rand.NewSource(seed))
	var heads []kg.EntityID
	seen := make(map[kg.EntityID]bool)
	for _, tr := range g.Triples() {
		if tr.R == rel && !seen[tr.H] {
			seen[tr.H] = true
			heads = append(heads, tr.H)
		}
	}
	out := make([]Query, n)
	for i := range out {
		out[i] = Query{E: heads[rng.Intn(len(heads))], R: rel, Dir: core.DirTail}
	}
	return out
}
