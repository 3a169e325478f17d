package vkg

import "vkgraph/internal/core"

// This file exposes dynamic updates — the paper's stated future work
// (Section VIII) — through the public API: facts and entities can be added
// to a live virtual knowledge graph without retraining the embedding or
// rebuilding the index.

// Fact describes one edge of a new entity for InsertEntity: the relation
// Rel, the Other endpoint, and NewIsHead, which places the new entity at the
// head of the fact (new, Rel, Other); otherwise the fact is (Other, Rel, new).
type Fact = core.Fact

// AddFact records a new fact (h, r, t) on the live graph. The embedding is
// untouched — the paper's locality intuition: existing soft constraints
// still hold — but the fact takes effect immediately: predictive queries
// answer over E' only, so (h, r, t) stops being predicted and its slot goes
// to the next-best entity.
func (v *VKG) AddFact(h EntityID, r RelationID, t EntityID) error {
	return v.eng.AddFact(h, r, t)
}

// InsertEntity adds a new entity with initial facts (at least one) and
// optional attribute values, and returns its id. The entity's embedding is
// solved locally from its facts' translation constraints; its index point
// is inserted incrementally into the cracked structure (a deferred split
// absorbs it until a query cares). The new entity is immediately queryable
// and immediately appears among other entities' predictions.
func (v *VKG) InsertEntity(name, typ string, facts []Fact, attrs map[string]float64) (EntityID, error) {
	return v.eng.InsertEntity(name, typ, facts, attrs)
}

// SetEntityAttr sets attribute attr of entity id on the live graph,
// creating the attribute column if the graph has never seen the name. A
// new attribute is immediately aggregatable — no rebuild or restart — and
// with a WAL armed the write survives restarts like any other mutation.
func (v *VKG) SetEntityAttr(attr string, id EntityID, value float64) error {
	return v.eng.SetAttr(attr, id, value)
}
