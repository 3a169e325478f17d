// Package kg implements the knowledge-graph store that underlies a virtual
// knowledge graph: typed entities, named relationship types, (h, r, t)
// triples with O(log degree) edge-membership tests, and numeric entity
// attributes for aggregate queries.
//
// The store is append-oriented: entities and relations are created once and
// referred to by dense int32 ids, which the embedding trainer and the spatial
// indices use as array indices.
//
// A graph has two phases. While it is built, it holds the triple list and a
// triple set that dedupes it. Freeze lays it out as flat arrays: entities as
// columns (names, type ids) with a name index sorted by (name, id), and, per
// direction, the adjacency as three arrays (see adjacency): per entity a run
// of (relation, end) pairs over one id array sorted by (relation, id). A
// frozen graph keeps no per-edge or per-entity map. Facts added after Freeze
// go to a small overlay that Freeze's arrays are read through; it is merged
// into them once it holds more than 1/foldDiv of the edges. Names of
// entities added after Freeze go to a name map, and those entities are
// merged into the name index once the map holds more than 1/foldDiv of the
// entities. A saved graph stores the arrays, and a load checks them
// instead of sorting again.
package kg

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"

	"vkgraph/internal/atomicfile"
	"vkgraph/internal/snapfmt"
)

// EntityID identifies an entity; ids are dense, starting at 0.
type EntityID = int32

// RelationID identifies a relationship type; ids are dense, starting at 0.
type RelationID = int32

// Triple is a single (head, relation, tail) fact.
type Triple struct {
	H EntityID
	R RelationID
	T EntityID
}

// Entity is a vertex of the knowledge graph.
type Entity struct {
	ID   EntityID
	Name string
	Type string
}

// Relation is a relationship type (edge label).
type Relation struct {
	ID   RelationID
	Name string
}

type edgeKey struct {
	E EntityID
	R RelationID
}

// foldDiv sets when the post-Freeze overlay is folded back into the flat
// arrays: once it holds more than 1/foldDiv of the edges, or names for more
// than 1/foldDiv of the entities.
const foldDiv = 8

// Graph is an in-memory knowledge graph.
//
// Graph is not safe for concurrent mutation; once fully built it is safe for
// concurrent reads. After Freeze, InsertTripleDynamic and AddEntity write
// the overlay and may fold it, so they need the same exclusion from readers
// as any other mutation. InsertTripleDynamic never writes the entity
// columns or the name index, so Entity and EntityByName may run beside it.
type Graph struct {
	// Entity columns, indexed by EntityID. types holds an index into
	// typeNames.
	names      []string
	types      []int32
	typeNames  []string
	typeByName map[string]int32

	relations      []Relation
	relationByName map[string]RelationID

	triples []Triple

	// byName holds the entities present at the last Freeze or fold, sorted
	// by (name, id). nameMap holds, for a name byName does not hold, the
	// first entity that carries it: every name before Freeze, and names new
	// since.
	byName  []EntityID
	nameMap map[string]EntityID

	// out and in are the tails of each (head, relation) and the heads of
	// each (tail, relation), laid out by Freeze.
	out, in adjacency

	// outOver and inOver are the overlay: the full sorted list of every key
	// an edge was inserted under since the arrays were laid out. overlayIDs
	// counts the ids they hold.
	outOver, inOver map[edgeKey][]EntityID
	overlayIDs      int

	// attrs holds numeric attribute columns keyed by attribute name. A
	// column is indexed by EntityID; missing values are NaN.
	attrs map[string][]float64

	// seen dedupes triples in O(1) during construction; dropped by Freeze.
	seen map[Triple]struct{}

	frozen bool
}

// adjacency is one direction of a frozen graph's edges. Entity e's
// relations are runs[start[e]:start[e+1]], in relation order; run j's ids
// are ids[runs[j-1].End:runs[j].End] (from 0 for j = 0), sorted.
type adjacency struct {
	start []int32
	runs  []run
	ids   []EntityID
}

type run struct {
	R   RelationID
	End int32
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		typeByName:     make(map[string]int32),
		relationByName: make(map[string]RelationID),
		attrs:          make(map[string][]float64),
		seen:           make(map[Triple]struct{}),
	}
}

// AddEntity creates an entity and returns its id. Names need not be unique;
// the first entity with a given name wins the name lookup.
func (g *Graph) AddEntity(name, typ string) EntityID {
	id := EntityID(len(g.names))
	if _, ok := g.EntityByName(name); !ok {
		if g.nameMap == nil {
			g.nameMap = make(map[string]EntityID)
		}
		g.nameMap[name] = id
	}
	g.names = append(g.names, name)
	g.types = append(g.types, g.typeID(typ))
	if g.frozen && len(g.nameMap) > len(g.names)/foldDiv {
		g.foldNames()
	}
	return id
}

func (g *Graph) typeID(typ string) int32 {
	if id, ok := g.typeByName[typ]; ok {
		return id
	}
	id := int32(len(g.typeNames))
	g.typeNames = append(g.typeNames, typ)
	g.typeByName[typ] = id
	return id
}

// AddRelation creates a relationship type and returns its id. Adding a name
// that already exists returns the existing id.
func (g *Graph) AddRelation(name string) RelationID {
	if id, ok := g.relationByName[name]; ok {
		return id
	}
	id := RelationID(len(g.relations))
	g.relations = append(g.relations, Relation{ID: id, Name: name})
	g.relationByName[name] = id
	return id
}

func (g *Graph) checkTriple(h EntityID, r RelationID, t EntityID) error {
	if h < 0 || int(h) >= len(g.names) {
		return fmt.Errorf("kg: head entity %d out of range [0,%d)", h, len(g.names))
	}
	if t < 0 || int(t) >= len(g.names) {
		return fmt.Errorf("kg: tail entity %d out of range [0,%d)", t, len(g.names))
	}
	if r < 0 || int(r) >= len(g.relations) {
		return fmt.Errorf("kg: relation %d out of range [0,%d)", r, len(g.relations))
	}
	return nil
}

// AddTriple records the fact (h, r, t). It returns an error if any id is out
// of range. Duplicate triples are ignored (the graph stores facts as a set).
func (g *Graph) AddTriple(h EntityID, r RelationID, t EntityID) error {
	if g.frozen {
		return errors.New("kg: graph is frozen")
	}
	if err := g.checkTriple(h, r, t); err != nil {
		return err
	}
	tr := Triple{H: h, R: r, T: t}
	if _, dup := g.seen[tr]; dup {
		return nil
	}
	g.seen[tr] = struct{}{}
	g.triples = append(g.triples, tr)
	return nil
}

// MustAddTriple is AddTriple that panics on error; for generators and tests
// where ids are known valid by construction.
func (g *Graph) MustAddTriple(h EntityID, r RelationID, t EntityID) {
	if err := g.AddTriple(h, r, t); err != nil {
		panic(err)
	}
}

// Freeze lays the graph out as flat arrays, so HasEdge runs in
// O(log degree), trims the triple list and entity columns to their length,
// and marks the graph immutable except through InsertTripleDynamic and
// AddEntity. Freeze is idempotent. It is the only place the layout is
// sorted from scratch: a fold merges into it and Decode checks a stored one.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	g.seen = nil
	g.triples = trim(g.triples)
	g.names = trim(g.names)
	g.types = trim(g.types)
	g.out = newAdjacency(len(g.names), g.triples, false)
	g.in = newAdjacency(len(g.names), g.triples, true)
	g.byName, g.nameMap = nameIndex(g.names), nil
	g.frozen = true
}

// trim returns s without spare capacity.
func trim[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	return append(S(nil), s...)
}

// foldEdges merges the edge overlay into the adjacency arrays and empties
// it. It leaves the name index alone, so an edge insert never writes what
// EntityByName reads.
func (g *Graph) foldEdges() {
	g.out = g.out.merge(len(g.names), g.outOver)
	g.in = g.in.merge(len(g.names), g.inOver)
	g.outOver, g.inOver, g.overlayIDs = nil, nil, 0
}

// foldNames merges the entities added since the name index was laid out
// into it and empties the name map.
func (g *Graph) foldNames() {
	g.byName = mergeNames(g.names, g.byName)
	g.nameMap = nil
}

// newAdjacency lays out one direction of the n-entity graph's triples:
// keyed by head (the tails of each head) or, with byTail, by tail.
// Duplicate triples are stored once.
func newAdjacency(n int, triples []Triple, byTail bool) adjacency {
	// Bucket (relation, other end) pairs by entity with a counting sort; a
	// pair packed into a uint64 sorts in (relation, id) order.
	off := make([]int32, n+1)
	for _, t := range triples {
		e, _ := ends(t, byTail)
		off[e+1]++
	}
	for e := 0; e < n; e++ {
		off[e+1] += off[e]
	}
	pairs := make([]uint64, len(triples))
	next := slices.Clone(off[:n])
	for _, t := range triples {
		e, other := ends(t, byTail)
		pairs[next[e]] = uint64(t.R)<<32 | uint64(uint32(other))
		next[e]++
	}
	a := adjacency{start: make([]int32, n+1), ids: make([]EntityID, 0, len(triples))}
	for e := 0; e < n; e++ {
		a.start[e] = int32(len(a.runs))
		b := pairs[off[e]:off[e+1]]
		slices.Sort(b)
		for i, p := range b {
			if i > 0 && p == b[i-1] {
				continue
			}
			if i == 0 || p>>32 != b[i-1]>>32 {
				a.runs = append(a.runs, run{R: RelationID(p >> 32)})
			}
			a.ids = append(a.ids, EntityID(uint32(p)))
			a.runs[len(a.runs)-1].End = int32(len(a.ids))
		}
	}
	a.start[n] = int32(len(a.runs))
	a.runs, a.ids = trim(a.runs), trim(a.ids)
	return a
}

// merge returns a laid out for n entities (n at least a's) with the lists
// of over in place of its own. A key of over holds its whole sorted list,
// so a list of a is replaced, not merged id by id. The keys are sorted
// once; between two of them a's starts, runs and ids are copied in bulk,
// shifted by what the keys before added. The result is allocated at its
// exact size, and a is left as it was, so a list handed out from it stays
// valid.
func (a *adjacency) merge(n int, over map[edgeKey][]EntityID) adjacency {
	type keyed struct {
		k     edgeKey
		l     []EntityID
		j     int32 // where k's run is, or would go, in a.runs
		found bool
	}
	ks := make([]keyed, 0, len(over))
	nRuns, nIDs := len(a.runs), len(a.ids)
	for k, l := range over {
		j, found := a.search(k.E, k.R)
		ks = append(ks, keyed{k, l, j, found})
		nIDs += len(l)
		if found {
			nIDs -= int(a.runs[j].End - a.begin(j))
		} else {
			nRuns++
		}
	}
	slices.SortFunc(ks, func(x, y keyed) int {
		if c := cmp.Compare(x.k.E, y.k.E); c != 0 {
			return c
		}
		return cmp.Compare(x.k.R, y.k.R)
	})
	m := adjacency{start: make([]int32, n+1), runs: make([]run, 0, nRuns), ids: make([]EntityID, 0, nIDs)}
	laid := EntityID(len(a.start) - 1)
	var e EntityID // the first entity whose start is not written yet
	var j int32    // the first of a's runs not copied or replaced yet
	// copyTo copies a's runs [j, j1) with their ids, and the starts of the
	// entities [e, e1).
	copyTo := func(e1 EntityID, j1 int32) {
		lo := a.begin(j)
		runShift, idShift := int32(len(m.runs))-j, int32(len(m.ids))-lo
		for ; e < e1; e++ {
			m.start[e] = a.start[min(e, laid)] + runShift
		}
		for ; j < j1; j++ {
			m.runs = append(m.runs, run{R: a.runs[j].R, End: a.runs[j].End + idShift})
		}
		m.ids = append(m.ids, a.ids[lo:a.begin(j)]...)
	}
	for _, x := range ks {
		copyTo(x.k.E+1, x.j)
		m.ids = append(m.ids, x.l...)
		m.runs = append(m.runs, run{R: x.k.R, End: int32(len(m.ids))})
		if x.found {
			j++
		}
	}
	copyTo(EntityID(n)+1, int32(len(a.runs)))
	return m
}

// ends returns the entity t is listed under in one direction, and the
// entity it lists there.
func ends(t Triple, byTail bool) (e, other EntityID) {
	if byTail {
		return t.T, t.H
	}
	return t.H, t.T
}

// search returns where e's run under relation r is in a.runs, or where it
// would go, and whether it is there. An entity a does not lay out has no
// runs, and its place is after all of them.
func (a *adjacency) search(e EntityID, r RelationID) (int32, bool) {
	if e < 0 || int(e) >= len(a.start)-1 {
		return int32(len(a.runs)), false
	}
	i, j := a.start[e], a.start[e+1]
	end := j
	for i < j {
		m := int32(uint32(i+j) >> 1)
		if a.runs[m].R < r {
			i = m + 1
		} else {
			j = m
		}
	}
	return i, i < end && a.runs[i].R == r
}

// begin returns where run j starts in a.ids.
func (a *adjacency) begin(j int32) int32 {
	if j == 0 {
		return 0
	}
	return a.runs[j-1].End
}

// span returns the bounds in a.ids of e's list under relation r, empty when
// e has none or is not laid out.
func (a *adjacency) span(e EntityID, r RelationID) (lo, hi int32) {
	i, ok := a.search(e, r)
	if !ok {
		return 0, 0
	}
	return a.begin(i), a.runs[i].End
}

// list returns e's sorted list under relation r, nil when empty. The slice
// has no spare capacity, so an append by the caller cannot reach the next
// list.
func (a *adjacency) list(e EntityID, r RelationID) []EntityID {
	lo, hi := a.span(e, r)
	if lo == hi {
		return nil
	}
	return a.ids[lo:hi:hi]
}

// byNameID orders entity ids by (name, id).
func byNameID(names []string) func(a, b EntityID) int {
	return func(a, b EntityID) int {
		if c := strings.Compare(names[a], names[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
}

// nameIndex returns the ids of names sorted by (name, id).
func nameIndex(names []string) []EntityID {
	idx := make([]EntityID, len(names))
	for i := range idx {
		idx[i] = EntityID(i)
	}
	slices.SortFunc(idx, byNameID(names))
	return idx
}

// mergeNames returns the name index of names, given byName, that of the
// first len(byName) entities: it sorts only the ids added since and merges
// them in. An added id is larger than any in byName, so on a tie byName's
// comes first.
func mergeNames(names []string, byName []EntityID) []EntityID {
	add := make([]EntityID, len(names)-len(byName))
	for i := range add {
		add[i] = EntityID(len(byName) + i)
	}
	slices.SortFunc(add, byNameID(names))
	m := make([]EntityID, 0, len(names))
	for len(byName) > 0 && len(add) > 0 {
		if names[add[0]] < names[byName[0]] {
			m, add = append(m, add[0]), add[1:]
		} else {
			m, byName = append(m, byName[0]), byName[1:]
		}
	}
	return append(append(m, byName...), add...)
}

// Frozen reports whether Freeze has been called.
func (g *Graph) Frozen() bool { return g.frozen }

func contains(sorted []EntityID, x EntityID) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= x })
	return i < len(sorted) && sorted[i] == x
}

// HasEdge reports whether the fact (h, r, t) is in E.
func (g *Graph) HasEdge(h EntityID, r RelationID, t EntityID) bool {
	if !g.frozen {
		_, ok := g.seen[Triple{H: h, R: r, T: t}]
		return ok
	}
	return contains(g.Tails(h, r), t)
}

// Tails returns the tail entities t with (h, r, t) in E, sorted once the
// graph is frozen and in insertion order before. The returned slice is owned
// by the graph and must not be mutated. Before Freeze it is built by a scan
// of every triple.
func (g *Graph) Tails(h EntityID, r RelationID) []EntityID {
	if !g.frozen {
		return g.scan(h, r, false)
	}
	if l, ok := g.outOver[edgeKey{h, r}]; ok {
		return l
	}
	return g.out.list(h, r)
}

// Heads returns the head entities h with (h, r, t) in E, sorted once the
// graph is frozen and in insertion order before. The returned slice is owned
// by the graph and must not be mutated. Before Freeze it is built by a scan
// of every triple.
func (g *Graph) Heads(t EntityID, r RelationID) []EntityID {
	if !g.frozen {
		return g.scan(t, r, true)
	}
	if l, ok := g.inOver[edgeKey{t, r}]; ok {
		return l
	}
	return g.in.list(t, r)
}

// scan collects the other ends of e's triples under r, in insertion order.
func (g *Graph) scan(e EntityID, r RelationID, byTail bool) []EntityID {
	var out []EntityID
	for _, t := range g.triples {
		if k, other := ends(t, byTail); t.R == r && k == e {
			out = append(out, other)
		}
	}
	return out
}

// NumEntities returns the number of entities.
func (g *Graph) NumEntities() int { return len(g.names) }

// NumRelations returns the number of relationship types.
func (g *Graph) NumRelations() int { return len(g.relations) }

// NumTriples returns the number of triples (edges in E).
func (g *Graph) NumTriples() int { return len(g.triples) }

// Entity returns the entity with the given id.
func (g *Graph) Entity(id EntityID) Entity {
	return Entity{ID: id, Name: g.names[id], Type: g.typeNames[g.types[id]]}
}

// Relation returns the relation with the given id.
func (g *Graph) Relation(id RelationID) Relation { return g.relations[id] }

// Triples returns the triple list. The returned slice is owned by the graph
// and must not be mutated.
func (g *Graph) Triples() []Triple { return g.triples }

// EntityByName returns the id of the first entity added with the given name.
func (g *Graph) EntityByName(name string) (EntityID, bool) {
	lo, hi := 0, len(g.byName)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if g.names[g.byName[m]] < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(g.byName) && g.names[g.byName[lo]] == name {
		return g.byName[lo], true
	}
	id, ok := g.nameMap[name]
	return id, ok
}

// RelationByName returns the id of the relation with the given name.
func (g *Graph) RelationByName(name string) (RelationID, bool) {
	id, ok := g.relationByName[name]
	return id, ok
}

// Relations returns all relationship types. The slice is owned by the graph.
func (g *Graph) Relations() []Relation { return g.relations }

// EntitiesOfType returns the ids of all entities with the given type, in id
// order.
func (g *Graph) EntitiesOfType(typ string) []EntityID {
	ti, ok := g.typeByName[typ]
	if !ok {
		return nil
	}
	var out []EntityID
	for id, t := range g.types {
		if t == ti {
			out = append(out, EntityID(id))
		}
	}
	return out
}

// SetAttr sets numeric attribute name of entity id to v, growing the column
// as needed. Unset values read as NaN.
func (g *Graph) SetAttr(name string, id EntityID, v float64) {
	col := g.attrs[name]
	if col == nil {
		col = make([]float64, 0, len(g.names))
	}
	for len(col) <= int(id) {
		col = append(col, math.NaN())
	}
	col[id] = v
	g.attrs[name] = col
}

// Attr returns the value of attribute name for entity id, and whether it is
// set.
func (g *Graph) Attr(name string, id EntityID) (float64, bool) {
	col := g.attrs[name]
	if int(id) >= len(col) {
		return 0, false
	}
	v := col[id]
	if math.IsNaN(v) {
		return 0, false
	}
	return v, true
}

// AttrColumn returns the raw attribute column (indexed by EntityID, NaN for
// missing) and whether the attribute exists. The slice is owned by the graph.
func (g *Graph) AttrColumn(name string) ([]float64, bool) {
	col, ok := g.attrs[name]
	return col, ok
}

// AttrNames returns the names of all attribute columns, sorted.
func (g *Graph) AttrNames() []string {
	names := make([]string, 0, len(g.attrs))
	for n := range g.attrs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Degrees returns the degree (in + out) of every entity in one pass.
func (g *Graph) Degrees() []int {
	deg := make([]int, len(g.names))
	for _, t := range g.triples {
		deg[t.H]++
		deg[t.T]++
	}
	return deg
}

// Stats summarizes the graph as in the paper's Table I.
type Stats struct {
	Entities      int
	RelationTypes int
	Edges         int
	MaxDegree     int
	MeanDegree    float64
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{
		Entities:      len(g.names),
		RelationTypes: len(g.relations),
		Edges:         len(g.triples),
	}
	if len(g.names) == 0 {
		return s
	}
	deg := g.Degrees()
	total := 0
	for _, d := range deg {
		total += d
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	s.MeanDegree = float64(total) / float64(len(deg))
	return s
}

// A graph file is a snapfmt container of its own (magic "VKGGRAPH",
// version graphVersion) with one section holding Encode's payload, so a
// file in any other format is refused with a typed error.
const (
	graphMagic   = "VKGGRAPH"
	graphVersion = 2
	secGraphFile = 1
)

// layout is what Encode writes of a graph beside its columns: the arrays
// Freeze lays out, with any overlay merged in, and the triple list as
// order, where order[i] is triple i's position in out.ids.
type layout struct {
	out, in adjacency
	byName  []EntityID
	order   []int32
}

// layout returns g's layout without changing g. An unfrozen graph is laid
// out as Freeze would lay it out.
func (g *Graph) layout() layout {
	if !g.frozen {
		c := *g
		c.Freeze()
		return c.layout()
	}
	n := len(g.names)
	l := layout{out: g.out, in: g.in, byName: g.byName}
	if g.overlayIDs > 0 || len(g.out.start) != n+1 {
		l.out, l.in = g.out.merge(n, g.outOver), g.in.merge(n, g.inOver)
	}
	if len(g.byName) != n {
		l.byName = mergeNames(g.names, g.byName)
	}
	l.order = make([]int32, len(g.triples))
	for i, t := range g.triples {
		lo, hi := l.out.span(t.H, t.R)
		p, _ := slices.BinarySearch(l.out.ids[lo:hi], t.T)
		l.order[i] = lo + int32(p)
	}
	return l
}

// Encode writes the graph's payload to w:
//
//	type names          strings
//	entity names        strings
//	entity types        int32s, indexes into the type names
//	relation names      strings, in id order
//	out, then in        start int32s | runs count | (r, end int32)... | ids int32s
//	name index          int32s, the ids sorted by (name, id)
//	triple order        int32s, each triple's position in out's ids, in insertion order
//	attribute columns   count | (name, float64s)..., in name order
//
// The bytes are a function of the graph's contents: the attribute map is
// written in name order, everything else in id order or as laid out.
func (g *Graph) Encode(w *snapfmt.Writer) {
	g.encode(w, g.layout())
}

// encode writes g's payload with l as its layout, which tests plant faults
// in.
func (g *Graph) encode(w *snapfmt.Writer, l layout) {
	w.Strings(g.typeNames)
	w.Strings(g.names)
	w.I32s(g.types)
	w.Count(len(g.relations))
	for _, rel := range g.relations {
		w.Str(rel.Name)
	}
	for _, a := range []*adjacency{&l.out, &l.in} {
		w.I32s(a.start)
		w.Count(len(a.runs))
		w.Grow(8 * len(a.runs))
		for _, ru := range a.runs {
			w.I32(ru.R)
			w.I32(ru.End)
		}
		w.I32s(a.ids)
	}
	w.I32s(l.byName)
	w.I32s(l.order)
	names := g.AttrNames()
	w.Count(len(names))
	for _, name := range names {
		w.Str(name)
		w.F64s(g.attrs[name])
	}
}

// Decode reads a payload written by Encode into a frozen graph. It sorts
// nothing: it checks the stored layout in linear passes and rebuilds the
// triple list from it. Any failure wraps snapfmt.ErrCorrupt.
func Decode(b []byte) (*Graph, error) {
	r := snapfmt.NewReader(b)
	g := &Graph{
		typeNames:      r.Strings(),
		names:          r.Strings(),
		types:          r.I32s(),
		typeByName:     make(map[string]int32),
		relationByName: make(map[string]RelationID),
		attrs:          make(map[string][]float64),
		frozen:         true,
	}
	for i, name := range g.typeNames {
		if _, dup := g.typeByName[name]; dup {
			r.Fail("type %q twice", name)
		}
		g.typeByName[name] = int32(i)
	}
	if len(g.types) != len(g.names) {
		r.Fail("%d entity types for %d entities", len(g.types), len(g.names))
	}
	for _, ti := range g.types {
		if ti < 0 || int(ti) >= len(g.typeNames) {
			r.Fail("type index %d of %d types", ti, len(g.typeNames))
		}
	}
	g.relations = make([]Relation, r.Count(4))
	for i := range g.relations {
		rel := Relation{ID: RelationID(i), Name: r.Str()}
		if _, dup := g.relationByName[rel.Name]; dup {
			r.Fail("relation %q twice", rel.Name)
		}
		g.relations[i] = rel
		g.relationByName[rel.Name] = rel.ID
	}
	g.out, g.in = decodeAdjacency(r), decodeAdjacency(r)
	g.byName = r.I32s()
	order := r.I32s()
	na, prev := r.Count(8), ""
	for i := 0; i < na; i++ {
		name := r.Str()
		if i > 0 && name <= prev {
			r.Fail("attribute %q after %q", name, prev)
		}
		g.attrs[name], prev = r.F64s(), name
	}
	if r.Err() == nil {
		if err := g.adopt(order); err != nil {
			r.Fail("%v", err)
		}
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("kg: decode graph: %w", err)
	}
	return g, nil
}

// adopt checks the decoded layout against g's columns, each check one
// linear pass, and rebuilds the triple list from order.
func (g *Graph) adopt(order []int32) error {
	n, nRel := len(g.names), len(g.relations)
	if err := g.out.check(n, nRel); err != nil {
		return fmt.Errorf("out: %w", err)
	}
	if err := g.in.check(n, nRel); err != nil {
		return fmt.Errorf("in: %w", err)
	}
	if err := transposes(&g.out, &g.in); err != nil {
		return err
	}
	if err := checkNameIndex(g.names, g.byName); err != nil {
		return err
	}
	var err error
	g.triples, err = triplesAt(&g.out, order)
	return err
}

func decodeAdjacency(r *snapfmt.Reader) adjacency {
	a := adjacency{start: r.I32s()}
	a.runs = make([]run, r.Count(8))
	for i := range a.runs {
		a.runs[i] = run{R: r.I32(), End: r.I32()}
	}
	a.ids = r.I32s()
	return a
}

// check returns the first way a is not the layout of an n-entity graph
// over nRel relations: start must rise from 0 to len(runs); each entity's
// runs must be non-empty, with relations in range and strictly increasing,
// and end at len(ids); each run's ids must be in range and strictly
// increasing.
func (a *adjacency) check(n, nRel int) error {
	if len(a.start) != n+1 || a.start[0] != 0 || int(a.start[n]) != len(a.runs) {
		return fmt.Errorf("%d run starts for %d entities and %d runs", len(a.start), n, len(a.runs))
	}
	for e := 0; e < n; e++ {
		if a.start[e+1] < a.start[e] {
			return fmt.Errorf("entity %d's runs start before entity %d's", e+1, e)
		}
	}
	var lo int32
	for e := 0; e < n; e++ {
		prevR := RelationID(-1)
		for _, ru := range a.runs[a.start[e]:a.start[e+1]] {
			if ru.R <= prevR || int(ru.R) >= nRel {
				return fmt.Errorf("entity %d: relation %d after %d, of %d relations", e, ru.R, prevR, nRel)
			}
			if ru.End <= lo || int(ru.End) > len(a.ids) {
				return fmt.Errorf("entity %d, relation %d: run ends at %d, after %d, of %d ids", e, ru.R, ru.End, lo, len(a.ids))
			}
			prev := EntityID(-1)
			for _, id := range a.ids[lo:ru.End] {
				if id <= prev || int(id) >= n {
					return fmt.Errorf("entity %d, relation %d: id %d after %d, of %d entities", e, ru.R, id, prev, n)
				}
				prev = id
			}
			prevR, lo = ru.R, ru.End
		}
	}
	if int(lo) != len(a.ids) {
		return fmt.Errorf("runs end at %d of %d ids", lo, len(a.ids))
	}
	return nil
}

// transposes returns an error unless in, a checked layout, is the
// transpose of out: for each of out's ids x under entity e and relation r,
// in lists e under (x, r). One walk over out in entity order meets the ids
// of each of in's runs in sorted order, so a cursor per run of in checks
// them; with as many ids on each side, every id of in is met once.
func transposes(out, in *adjacency) error {
	if len(out.ids) != len(in.ids) {
		return fmt.Errorf("in holds %d ids, out %d", len(in.ids), len(out.ids))
	}
	next := make([]int32, len(in.runs))
	for j := 1; j < len(in.runs); j++ {
		next[j] = in.runs[j-1].End
	}
	var lo int32
	for e := 0; e < len(out.start)-1; e++ {
		for _, ru := range out.runs[out.start[e]:out.start[e+1]] {
			for _, x := range out.ids[lo:ru.End] {
				j, ok := in.search(x, ru.R)
				if !ok || next[j] == in.runs[j].End || in.ids[next[j]] != EntityID(e) {
					return fmt.Errorf("(%d, %d, %d) is in out but not in in", e, ru.R, x)
				}
				next[j]++
			}
			lo = ru.End
		}
	}
	return nil
}

// checkNameIndex returns an error unless byName is names' ids sorted by
// (name, id). It checks that byName holds len(names) ids in range, each
// pair strictly after the one before, which makes byName a permutation:
// two equal ids would be two equal pairs.
func checkNameIndex(names []string, byName []EntityID) error {
	if len(byName) != len(names) {
		return fmt.Errorf("name index holds %d ids for %d entities", len(byName), len(names))
	}
	compare := byNameID(names)
	for i, id := range byName {
		if id < 0 || int(id) >= len(names) {
			return fmt.Errorf("name index: id %d of %d entities", id, len(names))
		}
		if i > 0 && compare(byName[i-1], id) >= 0 {
			return fmt.Errorf("name index: id %d after %d", id, byName[i-1])
		}
	}
	return nil
}

// triplesAt returns the triples out lays out, triple i at position
// order[i] of out.ids. order must name every position once; the inverse
// the rebuild needs records which positions it has named.
func triplesAt(out *adjacency, order []int32) ([]Triple, error) {
	if len(order) != len(out.ids) {
		return nil, fmt.Errorf("%d triples for %d ids", len(order), len(out.ids))
	}
	at := make([]int32, len(order)) // at[p] is 1 + the triple at position p, 0 if none yet
	for i, p := range order {
		if p < 0 || int(p) >= len(at) || at[p] != 0 {
			return nil, fmt.Errorf("triple %d at position %d: out of range or taken", i, p)
		}
		at[p] = int32(i) + 1
	}
	triples := make([]Triple, len(order))
	var lo int32
	for e := 0; e < len(out.start)-1; e++ {
		for _, ru := range out.runs[out.start[e]:out.start[e+1]] {
			for p := lo; p < ru.End; p++ {
				triples[at[p]-1] = Triple{H: EntityID(e), R: ru.R, T: out.ids[p]}
			}
			lo = ru.End
		}
	}
	return triples, nil
}

// Save writes the graph to w as a graph file.
func (g *Graph) Save(w io.Writer) error {
	var p snapfmt.Writer
	g.Encode(&p)
	return snapfmt.WriteOne(w, graphMagic, graphVersion, secGraphFile, p.Bytes())
}

// Load reads a graph file written by Save. A stream that is not one fails
// with an error wrapping snapfmt.ErrCorrupt, a graph file of another
// version with one wrapping snapfmt.ErrVersion.
func Load(r io.Reader) (*Graph, error) {
	payload, err := snapfmt.ReadOne(r, graphMagic, graphVersion, secGraphFile)
	if err != nil {
		return nil, fmt.Errorf("kg: %w", err)
	}
	return Decode(payload)
}

// SaveFile writes the graph to path atomically (temp file + rename): a
// crash mid-save leaves any previous file at path untouched.
func (g *Graph) SaveFile(path string) error {
	return atomicfile.WriteFile(path, g.Save)
}

// LoadFile reads a graph from path.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
