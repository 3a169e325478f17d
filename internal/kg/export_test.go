package kg

// OverlayIDs returns the number of ids the edge overlay holds.
func (g *Graph) OverlayIDs() int { return g.overlayIDs }

// RefoldEdges folds the edge overlay into the adjacency arrays and then
// puts back the arrays and the overlay it started from, so a benchmark can
// fold the same overlay again.
func (g *Graph) RefoldEdges() {
	out, in, outOver, inOver, ids := g.out, g.in, g.outOver, g.inOver, g.overlayIDs
	g.foldEdges()
	g.out, g.in, g.outOver, g.inOver, g.overlayIDs = out, in, outOver, inOver, ids
}
