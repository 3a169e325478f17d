// Package core ties the substrates together into the paper's query engine:
// it owns the virtual knowledge graph (graph + TransE embedding + JL
// transform + cracking R-tree) and implements the query-processing
// algorithms of Section V — FindTopKEntities (Algorithm 3) and the sampled
// aggregate estimators with their martingale accuracy bounds (Theorem 4,
// Equations 3-4).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"vkgraph/internal/embedding"
	"vkgraph/internal/jl"
	"vkgraph/internal/kg"
	"vkgraph/internal/obs"
	"vkgraph/internal/rtree"
)

// IndexMode selects how the S2 index is built.
type IndexMode int

const (
	// Crack builds the index online as queries arrive (the paper's
	// contribution): the greedy IncrementalIndexBuild of rtree.Tree.Crack.
	Crack IndexMode = iota
	// Bulk builds the complete R-tree offline (Algorithm 1).
	Bulk
)

// Params configure an Engine.
type Params struct {
	// Alpha is the dimensionality of S2 (paper: 3 or 6).
	Alpha int
	// Eps is the query-expansion epsilon of Algorithm 3: the search ball
	// radius is the kth best S1 distance times (1+Eps). Larger values
	// trade speed for recall per Theorem 2.
	Eps float64
	// PTau is the aggregate probability threshold: the aggregation ball
	// contains entities with predicted probability at least PTau.
	PTau float64
	// Seed fixes the JL projection.
	Seed int64
	// Index are the R-tree options.
	Index rtree.Options
	// Attrs are graph attribute columns registered with the index so
	// contour elements expose min/max statistics (the v_m of Theorem 4).
	Attrs []string
}

// DefaultParams returns the default configuration: alpha = 3 as in the
// paper, eps = 0.75 (calibrated so precision@10 lands in the paper's
// reported >= 0.95 band at alpha = 3), p_tau = 0.05.
func DefaultParams() Params {
	return Params{Alpha: 3, Eps: 0.75, PTau: 0.05, Seed: 1, Index: rtree.DefaultOptions()}
}

// lockedIndex is the S2 index under the lock that guards its structure.
type lockedIndex struct {
	mu   sync.RWMutex
	tree *rtree.Tree
}

// Engine answers predictive top-k and aggregate queries over a virtual
// knowledge graph.
//
// # Concurrency
//
// The engine is safe for concurrent use through its query and update
// methods: Do, DoBatchWorkers, TopK, Aggregate, TopKNoIndex,
// AggregateExact, AddFact, InsertEntity, Save, and IndexStats.
// The paper's core idea makes even read-only-looking queries potential
// writers — cracking means queries mutate the index — so the locking is
// two-level:
//
//   - e.mu, the engine lock, guards everything that grows or is replaced
//     wholesale: the graph, the model, the point set, and the lazy
//     materialization of the index root. Queries hold it in read mode for
//     their entire lifetime; AddFact and InsertEntity hold it in write mode
//     and therefore exclude all queries (and every index-lock holder, since
//     the index lock is only ever taken under e.mu.RLock).
//   - e.idx.mu, the index lock, guards the tree's structure. Walks (top-k,
//     aggregate balls) and the rtree.NeedsCrack probe hold it in read mode;
//     a query whose region still overlaps a pending element takes it in
//     write mode, re-checks, and cracks. Warm regions (the common case once
//     the index converges, Figs. 9-11) never serialize.
//   - Save runs under both read locks: snapshots don't block queries.
//
// e.mu is the engine's one mutex of its own. Lock order is always e.mu
// before e.idx.mu before the WAL, result-cache and trace-store mutexes, so
// the hierarchy is acyclic and deadlock-free.
//
// The raw accessors (Graph, Model, Tree, Transform) expose unsynchronized
// internals for the module's own single-threaded tools; do not mix them
// with concurrent updates.
type Engine struct {
	// mu is the engine-level reader/writer lock described above. It also
	// guards the graph and model, which grow through InsertEntity.
	mu sync.RWMutex

	g  *kg.Graph
	m  *embedding.Model // its Entities rows are the only copy of S1
	tf *jl.Transform
	ps *rtree.PointSet

	// idx is the cracking (or bulk-loaded) R-tree over ps and its lock.
	idx lockedIndex

	params Params
	mode   IndexMode

	// gen counts the graph mutations a top-k answer can see (AddFact,
	// InsertEntity; SetAttr changes no prediction).
	gen atomic.Uint64
	// cache holds one slot per top-k key: the call in flight duplicates
	// wait on, then the answer later callers hit until a write that can
	// change it drops it.
	cache *resultCache

	// met is the engine's metric surface (counters, gauges, latency
	// histograms); always non-nil after initExec, so hot paths increment
	// without nil checks.
	met *engineMetrics

	// traces is the bounded store of retained query traces (tail-sampled:
	// errors and slow queries always, a head-sampled fraction of the rest);
	// always non-nil after initExec.
	traces *obs.TraceStore

	// degraded records that LoadEngine had to rebuild a cold index because
	// the snapshot's index section was damaged.
	degraded bool

	// droppedAttrs lists attributes named by the snapshot but missing from
	// the loaded graph: the load degrades by dropping them (aggregates over
	// them return ErrUnknownAttribute) instead of failing a snapshot whose
	// graph and model are intact. Written once at load, then read-only.
	droppedAttrs []string

	// snapGen is the WAL generation the loaded snapshot was written at (0
	// for plain saves and engines not built from a snapshot); attachWAL
	// replays only a log keyed to exactly this generation.
	snapGen uint64

	// wal is the write-ahead log writer state (see wal.go). Embedded by
	// value so the metric closures registered in initExec can read its
	// atomic counters before the log is armed.
	wal walState
}

// initExec sets up the batch-executor state (metrics, trace store, result
// cache) and wires the tree to the node-access counters; called by both
// NewEngine and LoadEngine after the tree exists.
func (e *Engine) initExec() {
	e.traces = obs.NewTraceStore(0)
	e.met = newEngineMetrics(e)
	e.cache = newResultCache(defaultCacheSize, e.met.cacheHits, e.met.cacheMisses)
	e.idx.tree.SetAccessCounters(&e.met.nodeAccess)
}

// buildIndex constructs the tree over the current point set.
//
// Construction is never WAL-logged: it precedes WAL arming, and the
// freshly built state is exactly what the next snapshot captures
// wholesale.
func (e *Engine) buildIndex() {
	if e.mode == Bulk {
		e.idx.tree = rtree.NewBulkLoaded(e.ps, e.params.Index)
	} else {
		e.idx.tree = rtree.NewCracking(e.ps, e.params.Index)
	}
}

// NewEngine builds the query engine: projects every entity embedding into
// S2 and creates the index in the requested mode. With mode == Crack this
// is cheap (one sort pass); with mode == Bulk it performs the full offline
// build.
func NewEngine(g *kg.Graph, m *embedding.Model, mode IndexMode, p Params) (*Engine, error) {
	if g == nil || m == nil {
		return nil, errors.New("core: nil graph or model")
	}
	if g.NumEntities() != m.NumEntities() {
		return nil, fmt.Errorf("core: graph has %d entities, model %d", g.NumEntities(), m.NumEntities())
	}
	if p.Alpha <= 0 {
		return nil, fmt.Errorf("core: invalid alpha %d", p.Alpha)
	}
	if p.Eps < 0 {
		return nil, fmt.Errorf("core: negative eps %v", p.Eps)
	}
	if p.PTau <= 0 || p.PTau > 1 {
		p.PTau = 0.05
	}

	if mode != Crack && mode != Bulk {
		return nil, fmt.Errorf("core: unknown index mode %d", mode)
	}
	g.Freeze() // idempotent; sorts adjacency for the binary-search filters

	tf := jl.New(m.Dim, p.Alpha, p.Seed)
	ps := rtree.NewPointSet(p.Alpha, tf.ApplyAll(m.Entities))
	for _, name := range p.Attrs {
		col, ok := g.AttrColumn(name)
		if !ok {
			return nil, fmt.Errorf("core: %w: %q", ErrUnknownAttribute, name)
		}
		ps.BindAttr(name, col)
	}

	e := &Engine{g: g, m: m, tf: tf, ps: ps, params: p, mode: mode}
	e.buildIndex()
	e.initExec()
	return e, nil
}

// Graph returns the underlying knowledge graph.
func (e *Engine) Graph() *kg.Graph { return e.g }

// Model returns the embedding model.
func (e *Engine) Model() *embedding.Model { return e.m }

// Transform returns the S1 -> S2 JL transform.
func (e *Engine) Transform() *jl.Transform { return e.tf }

// Tree returns the S2 index (for stats and tests).
func (e *Engine) Tree() *rtree.Tree { return e.idx.tree }

// Params returns the engine parameters.
func (e *Engine) Params() Params { return e.params }

// Mode returns the index mode the engine was built (or loaded) with.
func (e *Engine) Mode() IndexMode { return e.mode }

// IndexRebuilt reports whether this engine came from a snapshot whose index
// section was damaged: the graph and model loaded intact, but the index was
// rebuilt cold and the workload-paid-for shape was lost.
func (e *Engine) IndexRebuilt() bool { return e.degraded }

// DroppedAttrs returns the attributes the snapshot named but the loaded
// graph did not carry; the load dropped them instead of failing (see the
// degraded-load contract in persist.go). Empty on healthy loads.
func (e *Engine) DroppedAttrs() []string {
	return append([]string(nil), e.droppedAttrs...)
}

// StructureHash digests the structural state of the index — the tree's
// StructureHash and the registered attribute columns — into one 64-bit
// value. A snapshot plus WAL replay must land on exactly the hash the live
// engine had at its last append; the WAL tests assert this equivalence.
func (e *Engine) StructureHash() uint64 {
	e.prepareIndex()
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.idx.mu.RLock()
	defer e.idx.mu.RUnlock()
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	var buf [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putU64(uint64(e.ps.Dim))
	putU64(uint64(e.ps.N()))
	putU64(e.idx.tree.StructureHash())
	for _, name := range e.ps.AttrNames() {
		putU64(uint64(len(name)))
		io.WriteString(h, name)
	}
	return h.Sum64()
}

// IndexStats reports the index structure counters (Figs. 9-11). It never
// builds the lazy root: before the first query it reports the unbuilt
// index (rtree.Tree.Stats), so a metrics scrape of a fresh engine leaves
// the first query's work to the first query.
func (e *Engine) IndexStats() rtree.Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.idx.mu.RLock()
	defer e.idx.mu.RUnlock()
	return e.idx.tree.Stats()
}

// CheckInvariants verifies the tree's structural invariants, which include
// that its contour holds exactly the point set. Intended for tests;
// O(n log n).
func (e *Engine) CheckInvariants() error {
	e.prepareIndex()
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.idx.mu.RLock()
	defer e.idx.mu.RUnlock()
	return e.idx.tree.CheckInvariants()
}

// prepareIndex materializes the lazy root under the engine write lock, so
// that everything that follows under the read lock is genuinely read-only
// (Crack's own ensureRoot is then a no-op, and never writes a root pointer
// under a mere index lock). A no-op once the root exists; it reports
// whether it built anything, which is the first query's share of the index
// build.
func (e *Engine) prepareIndex() bool {
	e.mu.RLock()
	ready := e.idx.tree.Ready()
	e.mu.RUnlock()
	if ready {
		return false
	}
	e.mu.Lock()
	e.idx.tree.Prepare()
	e.mu.Unlock()
	return true
}

// finishQuery completes a query that was computed under the engine read lock
// (which the caller still holds, the index lock released): the region is
// probed with NeedsCrack under the index read lock, and only if a pending
// element it overlaps still needs work is the index write-locked and
// cracked — re-checking under the write lock, since a concurrent query may
// have cracked the same region meanwhile. The engine read lock is released
// at the end either way. Split and node-creation deltas are captured under
// the write lock (both accessors are O(1)), so the crack counters attribute
// exactly this query's structural work.
func (e *Engine) finishQuery(q rtree.Rect, doCrack bool, tr *obs.QueryTrace) {
	if !doCrack {
		e.mu.RUnlock()
		tr.Step(obs.StageCrack)
		return
	}
	ix := &e.idx
	ix.mu.RLock()
	needs := ix.tree.NeedsCrack(q)
	ix.mu.RUnlock()
	var wait, held time.Duration
	var splits, nodes int
	if needs {
		t0 := time.Now()
		ix.mu.Lock()
		wait = time.Since(t0)
		e.met.lockWriteWait.Observe(wait.Seconds())
		if needs = ix.tree.NeedsCrack(q); needs {
			splits0, nodes0 := ix.tree.Splits(), ix.tree.Nodes()
			c0 := time.Now()
			ix.tree.Crack(q)
			// Log the crack while still holding the write lock: record
			// order then matches apply order, which replay depends on
			// (cracks do not commute).
			e.walAppendCrack(q)
			held = time.Since(c0)
			splits = ix.tree.Splits() - splits0
			nodes = ix.tree.Nodes() - nodes0
			e.met.crackLock.Observe(held.Seconds())
		}
		ix.mu.Unlock()
	}
	if needs {
		e.met.crackQueries.Inc()
		e.met.crackSplits.Add(uint64(splits))
		e.met.crackNodes.Add(uint64(nodes))
	} else {
		ix.tree.NoteQuery() // Crack counted the others
		e.met.warmQueries.Inc()
	}
	e.mu.RUnlock()
	if tr != nil {
		tr.Splits, tr.NodesCreated = splits, nodes
		tr.LockWait, tr.LockHeld = wait, held
		tr.Step(obs.StageCrack)
	}
}

// s1Dist returns the S1 distance between query point q1 and entity id,
// under the embedding's norm.
func (e *Engine) s1Dist(q1 []float64, id kg.EntityID) float64 {
	ev := e.m.EntityVec(id)
	if e.m.NormUsed != embedding.L1 {
		return math.Sqrt(sqDistBounded(q1, ev, math.Inf(1)))
	}
	var s float64
	for i, v := range q1 {
		d := v - ev[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

// sqDistBounded returns the squared L2 distance between q1 and an entity's
// S1 row, aborting with +Inf once the partial sum exceeds cutoffSq:
// candidates that cannot enter the top-k need no exact distance. The early
// abort is only an optimisation: the result is the full sum, bit for bit,
// or +Inf, and it depends on nothing but q1, the row and cutoffSq. That is
// what lets the re-ranker load rows ahead of their turn without changing an
// answer. Callers pass e.m.EntityVec(id) afresh each time — InsertEntity
// reallocates e.m.Entities under the write lock, so a row outlives no read
// lock.
func sqDistBounded(q1, row []float64, cutoffSq float64) float64 {
	row = row[:len(q1)]
	var s float64
	i := 0
	for ; i+8 <= len(row); i += 8 {
		for j := i; j < i+8; j++ {
			d := q1[j] - row[j]
			s += d * d
		}
		if s > cutoffSq {
			return math.Inf(1)
		}
	}
	for ; i < len(row); i++ {
		d := q1[i] - row[i]
		s += d * d
	}
	if s > cutoffSq {
		return math.Inf(1)
	}
	return s
}

// query is one validated predictive query: the S1 query point q1 and what
// the answer excludes, the query entity itself and its known edges in E.
// known is sorted (the graph is frozen), so skips is a binary search
// instead of a map probe: it runs for every examined point of every query.
type query struct {
	q1    []float64
	self  kg.EntityID
	known []kg.EntityID
}

func (q *query) skips(id kg.EntityID) bool {
	return id == q.self || containsSorted(q.known, id)
}

// resolve validates ent and rel and builds the query for dir: Q1 searches
// around h + r among the tails, its symmetric form around t - r among the
// heads. The caller holds the engine read lock.
func (e *Engine) resolve(dir Dir, ent kg.EntityID, rel kg.RelationID) (query, error) {
	if err := e.validateEntity(ent); err != nil {
		return query{}, err
	}
	if err := e.validateRelation(rel); err != nil {
		return query{}, err
	}
	if dir == DirHead {
		return query{q1: e.m.HeadQueryPoint(ent, rel), self: ent, known: e.g.Heads(ent, rel)}, nil
	}
	return query{q1: e.m.TailQueryPoint(ent, rel), self: ent, known: e.g.Tails(ent, rel)}, nil
}

// beginQuery is the preamble of the indexed queries: it materializes the
// lazy root, takes the engine read lock and resolves the query. On success
// the caller holds the read lock; on failure it is released and the error
// counted. The exact scans call resolve alone, so they never build the root
// and never count in the indexed metrics.
func (e *Engine) beginQuery(dir Dir, ent kg.EntityID, rel kg.RelationID, tr *obs.QueryTrace) (query, error) {
	if e.prepareIndex() {
		// Building the root is index construction the first query pays
		// for, not validation: its time goes to the crack span.
		tr.Carry(obs.StageCrack)
	}
	w0 := time.Now()
	e.mu.RLock()
	e.met.lockReadWait.Observe(time.Since(w0).Seconds())
	q, err := e.resolve(dir, ent, rel)
	if err != nil {
		e.mu.RUnlock()
		e.met.queryErrors.Inc()
		return query{}, err
	}
	tr.Step(obs.StageValidate)
	return q, nil
}

func containsSorted(s []kg.EntityID, x kg.EntityID) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == x
}

func (e *Engine) validateEntity(id kg.EntityID) error {
	if id < 0 || int(id) >= e.g.NumEntities() {
		return fmt.Errorf("core: entity %d out of range [0,%d): %w", id, e.g.NumEntities(), ErrUnknownEntity)
	}
	return nil
}

func (e *Engine) validateRelation(id kg.RelationID) error {
	if id < 0 || int(id) >= e.g.NumRelations() {
		return fmt.Errorf("core: relation %d out of range [0,%d): %w", id, e.g.NumRelations(), ErrUnknownRelation)
	}
	return nil
}
