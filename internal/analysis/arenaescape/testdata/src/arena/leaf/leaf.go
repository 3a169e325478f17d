// Package leaf declares a page header that the arena one level up keeps in
// a slab of its own, as rtree keeps points.Page: a record type from a
// package below the arena's.
package leaf

type Page struct {
	IDs []int32
}
