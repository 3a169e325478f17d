package kg

import (
	"maps"
	"math/rand"
	"slices"
)

// Split partitions the graph's triples into a training graph and a held-out
// test set by masking a random fraction of edges, as the paper does when
// probing whether masked edges surface in predictive top-k results. The
// returned graph shares entity and attribute tables with g but owns its own
// (reduced) triple set.
//
// Split never masks the last remaining edge of an entity when keepConnected
// is true, so every entity still appears in at least one training triple and
// therefore receives a trained embedding.
func Split(g *Graph, fraction float64, keepConnected bool, rng *rand.Rand) (train *Graph, test []Triple) {
	if fraction < 0 || fraction >= 1 {
		panic("kg: Split fraction must be in [0, 1)")
	}
	triples := g.Triples()
	perm := rng.Perm(len(triples))
	mask := int(float64(len(triples)) * fraction)

	deg := g.Degrees()
	masked := make(map[int]bool, mask)
	for _, idx := range perm {
		if len(masked) >= mask {
			break
		}
		t := triples[idx]
		if keepConnected && (deg[t.H] <= 1 || deg[t.T] <= 1) {
			continue
		}
		masked[idx] = true
		deg[t.H]--
		deg[t.T]--
	}

	// g's triples are a set, so train's need no dedup: they are laid out
	// directly.
	train = &Graph{
		names:          g.names,
		types:          g.types,
		typeNames:      slices.Clone(g.typeNames),
		typeByName:     maps.Clone(g.typeByName),
		relations:      g.relations,
		relationByName: maps.Clone(g.relationByName),
		triples:        make([]Triple, 0, len(triples)-len(masked)),
		attrs:          g.attrs,
	}
	for idx, t := range triples {
		if masked[idx] {
			test = append(test, t)
			continue
		}
		train.triples = append(train.triples, t)
	}
	train.Freeze()
	return train, test
}
