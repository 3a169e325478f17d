// Package arena exercises arenaescape's four sinks on its own record
// type. Node is exported so sink 4 has something to return; in-tree the
// real record type (rtree.node) is unexported.
package arena

type Node struct {
	Next *Node
	N    int
	Page *Page // the record's own slot in slab.pages
}

// Page is a leaf record's page header. It lives in a slab of its own
// beside the records', so it is a record type too.
type Page struct {
	IDs []int32
}

// slab is the arena: a struct with an alloc method, whose slice fields
// are slabs of records.
type slab struct {
	slabs [][]Node
	pages [][]Page
	next  int
}

func (s *slab) alloc() *Node {
	if len(s.slabs) == 0 || s.next == 16 {
		s.slabs = append(s.slabs, make([]Node, 16))
		s.next = 0
	}
	s.next++
	return &s.slabs[len(s.slabs)-1][s.next-1]
}

// Tree holds node pointers inside a named struct: the arena's own
// machinery, never flagged.
type Tree struct {
	ar   slab
	root *Node
}

// NewTree returns the tree, not a node — fine.
func NewTree() *Tree { return &Tree{} }

var lastNode *Node

// bad: stores a node in a package-level variable.
func (t *Tree) remember() {
	lastNode = t.root // want `arena record pointer stored in package-level lastNode`
}

// bad: sends a node on a channel.
func (t *Tree) publish(ch chan *Node) {
	ch <- t.root // want `arena record pointer sent on a channel`
}

// bad: a goroutine capturing a node runs after the locks are released.
func (t *Tree) inspect() {
	nd := t.root
	go func() {
		_ = nd // want `goroutine captures arena record pointer nd`
	}()
}

// ok: capturing the tree itself is fine — named structs are not
// traversed, or the index would indict itself.
func (t *Tree) stats() {
	go func() {
		_ = t
	}()
}

// bad: an exported method returning the bare pointer.
func (t *Tree) Root() *Node { // want `exported Root returns an arena record pointer`
	return t.root
}

// ok: an unexported return stays inside the package, where the lifetime
// rules are known.
func (t *Tree) rootLocked() *Node { return t.root }

var lastPage *Page

// bad: a record's page outlives the lock scope no better than the record.
func (t *Tree) rememberPage() {
	lastPage = t.root.Page // want `arena record pointer stored in package-level lastPage`
}

// bad: the page escapes across the package boundary.
func (t *Tree) RootPage() *Page { // want `exported RootPage returns an arena record pointer`
	return t.root.Page
}

// ok: the payload is what may cross.
func (t *Tree) RootIDs() []int32 { return t.root.Page.IDs }
