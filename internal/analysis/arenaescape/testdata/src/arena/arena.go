// Package arena exercises arenaescape's two sinks on its own record types.
package arena

import "arena/leaf"

type Node struct {
	Next *Node
	N    int
	Page *Page      // the record's own slot in slab.pages
	Leaf *leaf.Page // the record's own slot in slab.leaves
}

// Page is a leaf record's page header. It lives in a slab of its own
// beside the records', so it is a record type too.
type Page struct {
	IDs []int32
}

// slab is the arena: a struct with an alloc method, whose slice fields
// are slabs of records.
type slab struct {
	slabs  [][]Node
	pages  [][]Page
	leaves [][]leaf.Page
	next   int
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

var lastNode *Node

// bad: stores a node in a package-level variable.
func (t *Tree) remember() {
	lastNode = t.root // want `arena record pointer stored in package-level lastNode`
}

// bad: sends a node on a channel.
func (t *Tree) publish(ch chan *Node) {
	ch <- t.root // want `arena record pointer sent on a channel`
}

// ok: a local, a parameter or a field of the arena's own machinery.
func (t *Tree) descend() *Node {
	nd := t.root
	t.root = nd.Next
	return nd
}

var lastPage *Page

// bad: a record's page outlives the lock scope no better than the record.
func (t *Tree) rememberPage() {
	lastPage = t.root.Page // want `arena record pointer stored in package-level lastPage`
}

// ok: the payload is what may be kept.
var lastIDs []int32

func (t *Tree) rememberIDs() { lastIDs = t.root.Page.IDs }

var lastLeaf *leaf.Page

// bad: a page header from the package below is a record all the same.
func (t *Tree) rememberLeaf() {
	lastLeaf = t.root.Leaf // want `arena record pointer stored in package-level lastLeaf`
}
