package core

import (
	"errors"
	"fmt"
	"time"

	"vkgraph/internal/kg"
)

// This file implements the paper's Section VIII future work: dynamic
// knowledge-graph updates with incremental updates on the partial index.
// The paper's intuition — "when there are local updates, the embedding
// changes should be local too, as most (h, r, t) soft constraints still
// hold" — is realized in two operations:
//
//   - AddFact records a new edge. The embedding is untouched (the existing
//     soft constraints still hold); the fact takes effect immediately
//     because predictive queries cover E' only, so the new edge disappears
//     from prediction results on the next query.
//
//   - InsertEntity adds a brand-new entity with its initial facts. Its
//     embedding vector is solved locally from the translation constraints
//     it participates in (t ≈ h + r for each fact), every other vector is
//     left alone, and the point is inserted into the cracking index, whose
//     deferred-split insert keeps the uneven structure intact.

// Fact describes one edge of a new entity: the relation, the other
// endpoint, and which side the new entity occupies.
type Fact struct {
	Rel   kg.RelationID
	Other kg.EntityID
	// NewIsHead marks the new entity as the head (new, Rel, Other);
	// otherwise the fact is (Other, Rel, new).
	NewIsHead bool
}

// AddFact records the fact (h, r, t) on the live engine. It is a writer:
// it takes the engine write lock and fully serializes against queries and
// other updates. Once the lock is released it drops the cached answers the
// fact can change, before it returns.
func (e *Engine) AddFact(h kg.EntityID, r kg.RelationID, t kg.EntityID) error {
	w0 := time.Now()
	e.mu.Lock()
	e.met.lockWriteWait.Observe(time.Since(w0).Seconds())
	err := e.addFactLocked(h, r, t)
	if err == nil {
		e.walAppendAddFact(h, r, t)
	}
	e.mu.Unlock()
	if err != nil {
		return err
	}
	e.cache.dropFact(h, r, t)
	return nil
}

// addFactLocked validates and applies one fact; shared by the live AddFact
// path and WAL replay, so both mutate identically. Caller holds the engine
// write lock (or is the single-threaded replay).
func (e *Engine) addFactLocked(h kg.EntityID, r kg.RelationID, t kg.EntityID) error {
	if err := e.validateEntity(h); err != nil {
		return err
	}
	if err := e.validateEntity(t); err != nil {
		return err
	}
	if err := e.validateRelation(r); err != nil {
		return err
	}
	if err := e.g.InsertTripleDynamic(h, r, t); err != nil {
		return err
	}
	e.gen.Add(1)
	return nil
}

// SetAttr sets attribute name of entity id, creating the attribute column
// if the graph has never seen the name. A brand-new column is registered
// with the point set immediately, so aggregates over it work without a
// restart. SetAttr is a writer: it takes the engine write lock.
func (e *Engine) SetAttr(name string, id kg.EntityID, v float64) error {
	w0 := time.Now()
	e.mu.Lock()
	e.met.lockWriteWait.Observe(time.Since(w0).Seconds())
	defer e.mu.Unlock()
	if err := e.validateEntity(id); err != nil {
		return err
	}
	// No cached answer reads an attribute (aggregates are not cached), so
	// the result cache stays as it is.
	e.setAttrLocked(name, id, v)
	e.walAppendSetAttr(name, id, v)
	return nil
}

// setAttrLocked writes the attribute value and keeps the point set's
// column binding current: growing a column can reallocate it, and a name
// the point set has never registered is registered on the spot — the
// register-on-miss that makes dynamically added attributes queryable. The
// index element holding the entity drops its cached attribute statistics
// (an entity still being inserted has none: Insert sees to its element).
func (e *Engine) setAttrLocked(name string, id kg.EntityID, v float64) {
	e.g.SetAttr(name, id, v)
	if col, ok := e.g.AttrColumn(name); ok {
		e.ps.BindAttr(name, col)
	}
	if int(id) < e.ps.N() {
		e.idx.tree.NoteAttr(int32(id))
	}
}

// InsertEntity adds a new entity with at least one initial fact and returns
// its id. The entity's S1 vector is the mean of the positions implied by
// its facts (h + r for tail roles, t - r for head roles) — the local least-
// squares solution of the TransE constraints with all other vectors fixed —
// and the S2 point is inserted into the index without any rebuilding.
//
// InsertEntity is a writer: it takes the engine write lock and fully
// serializes against queries and other updates. Once the lock is released
// it drops the cached answers the new point can change, before it returns.
func (e *Engine) InsertEntity(name, typ string, facts []Fact, attrs map[string]float64) (kg.EntityID, error) {
	w0 := time.Now()
	e.mu.Lock()
	e.met.lockWriteWait.Observe(time.Since(w0).Seconds())
	// Sort the attribute map into parallel slices before anything touches
	// the engine: the same canonical order goes into the mutation and the
	// WAL record, so replay registers columns in the order the live call
	// did.
	attrNames, attrVals := sortAttrs(attrs)
	id, p2, err := e.insertEntityLocked(name, typ, facts, attrNames, attrVals)
	if err == nil {
		e.walAppendInsert(name, typ, facts, attrNames, attrVals)
	}
	e.mu.Unlock()
	if err != nil {
		return 0, err
	}
	e.cache.dropInsert(p2)
	return id, nil
}

// insertEntityLocked is the shared body of InsertEntity and WAL replay:
// full validation before the first mutation, then graph, model, point set,
// and index grow in lockstep. It returns the new id and its S2 point.
// Caller holds the engine write lock (or is the single-threaded replay).
func (e *Engine) insertEntityLocked(name, typ string, facts []Fact, attrNames []string, attrVals []float64) (kg.EntityID, []float64, error) {
	if len(facts) == 0 {
		return 0, nil, errors.New("core: InsertEntity needs at least one fact to place the entity")
	}
	for _, f := range facts {
		if err := e.validateEntity(f.Other); err != nil {
			return 0, nil, err
		}
		if err := e.validateRelation(f.Rel); err != nil {
			return 0, nil, err
		}
	}
	// All validation happens before the first mutation, so a rejected call
	// leaves the engine exactly as it was: graph, model, point set, and
	// index stay in lockstep (their sizes all equal NumEntities), and the
	// generation counter is untouched. InsertTripleDynamic's only failure
	// mode is an out-of-range id, which the checks above (and the new id
	// being freshly allocated) rule out; duplicate facts are no-ops for it,
	// so they need no pre-screening.
	if e.g.NumEntities()*e.m.Dim != len(e.m.Entities) {
		return 0, nil, fmt.Errorf("core: model/graph desynchronized at %d entities", e.g.NumEntities())
	}
	if e.ps.N() != e.g.NumEntities() {
		return 0, nil, fmt.Errorf("core: point set desynchronized: %d points for %d entities", e.ps.N(), e.g.NumEntities())
	}

	// Solve the new vector locally from the translation constraints.
	vec := make([]float64, e.m.Dim)
	for _, f := range facts {
		ov := e.m.EntityVec(f.Other)
		rv := e.m.RelVec(f.Rel)
		if f.NewIsHead {
			// new + r ≈ other  =>  new ≈ other - r
			for i := range vec {
				vec[i] += ov[i] - rv[i]
			}
		} else {
			// other + r ≈ new  =>  new ≈ other + r
			for i := range vec {
				vec[i] += ov[i] + rv[i]
			}
		}
	}
	for i := range vec {
		vec[i] /= float64(len(facts))
	}

	// Grow graph, model, S2 point set, and index in lockstep. No step below
	// can fail: the desynchronization and range checks above already proved
	// every id in range and every structure the same size.
	id := e.g.AddEntity(name, typ)
	e.m.Entities = append(e.m.Entities, vec...)
	for _, f := range facts {
		if f.NewIsHead {
			_ = e.g.InsertTripleDynamic(id, f.Rel, f.Other)
		} else {
			_ = e.g.InsertTripleDynamic(f.Other, f.Rel, id)
		}
	}
	for i, an := range attrNames {
		// setAttrLocked registers never-seen attribute names with the point
		// set (register-on-miss) — previously a new name was written to the
		// graph but never bound, so aggregates over it reported
		// ErrUnknownAttribute on live data.
		e.setAttrLocked(an, id, attrVals[i])
	}

	p2 := e.tf.Apply(vec)
	pid := e.ps.AppendPoint(p2)
	e.idx.tree.Insert(pid)
	e.gen.Add(1)
	return id, p2, nil
}
