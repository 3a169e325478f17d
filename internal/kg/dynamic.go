package kg

import "sort"

// InsertTripleDynamic records a new fact in a frozen graph. It is the update
// path for dynamic knowledge graphs (the paper's Section VIII future work):
// entities keep their ids, lookups stay O(log degree), and the
// virtual-knowledge-graph engine reflects the new edge immediately (a newly
// recorded fact stops being predicted, since predictions cover E' only).
//
// The fact goes to the overlay: each of its two keys gets a new sorted list,
// so a list handed out earlier is never changed. Once the overlay is large
// enough it is folded into the flat arrays, which costs a pass over every
// triple.
func (g *Graph) InsertTripleDynamic(h EntityID, r RelationID, t EntityID) error {
	if !g.frozen {
		return g.AddTriple(h, r, t)
	}
	if err := g.checkTriple(h, r, t); err != nil {
		return err
	}
	if g.HasEdge(h, r, t) {
		return nil
	}
	g.triples = append(g.triples, Triple{H: h, R: r, T: t})
	g.outOver = g.overlayInsert(g.outOver, edgeKey{h, r}, g.Tails(h, r), t)
	g.inOver = g.overlayInsert(g.inOver, edgeKey{t, r}, g.Heads(t, r), h)
	if g.overlayIDs > len(g.triples)/foldDiv {
		g.foldEdges()
	}
	return nil
}

// overlayInsert stores list l with x inserted under k in over, and returns
// over, made if nil.
func (g *Graph) overlayInsert(over map[edgeKey][]EntityID, k edgeKey, l []EntityID, x EntityID) map[edgeKey][]EntityID {
	if over == nil {
		over = make(map[edgeKey][]EntityID)
	}
	if _, ok := over[k]; ok {
		g.overlayIDs++
	} else {
		g.overlayIDs += len(l) + 1
	}
	i := sort.Search(len(l), func(i int) bool { return l[i] >= x })
	nl := make([]EntityID, len(l)+1)
	copy(nl, l[:i])
	nl[i] = x
	copy(nl[i+1:], l[i:])
	over[k] = nl
	return over
}
