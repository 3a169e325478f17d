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
	"runtime"
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
	// contribution). With Params.Index.SplitChoices > 1 this is the
	// Top-kSplitsIndexBuild variant.
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
	// Shards is the number of spatial shards the cracking index is split
	// into (rounded down to a power of two, capped at 64). Zero derives a
	// default from GOMAXPROCS. Bulk mode always uses a single shard: a
	// fully built tree never cracks, so there is no write-lock traffic to
	// spread. NewEngine records the resolved value back into Params.
	Shards int
}

// maxShards caps the shard count: beyond this, per-query overhead (one MBR
// probe and one RLock per shard) outweighs any added write concurrency.
const maxShards = 64

// resolveShards normalizes Params.Shards: Bulk mode forces one shard, an
// explicit request rounds down to a power of two in [1, maxShards], and zero
// derives the largest power of two <= GOMAXPROCS, capped at 16.
func resolveShards(n int, mode IndexMode) int {
	if mode == Bulk {
		return 1
	}
	if n <= 0 {
		limit := runtime.GOMAXPROCS(0)
		if limit > 16 {
			limit = 16
		}
		n = limit
	}
	if n > maxShards {
		n = maxShards
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

// shardBits returns log2(n) for the power-of-two shard count n.
func shardBits(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// DefaultParams returns the default configuration: alpha = 3 as in the
// paper, eps = 0.75 (calibrated so precision@10 lands in the paper's
// reported >= 0.95 band at alpha = 3), p_tau = 0.05.
func DefaultParams() Params {
	return Params{Alpha: 3, Eps: 0.75, PTau: 0.05, Seed: 1, Index: rtree.DefaultOptions()}
}

// engineShard is one spatial shard of the index: a cracked tree over a
// Morton-prefix cell of S2, with its own reader/writer lock so cracking one
// region of space does not serialize queries against the others.
type engineShard struct {
	mu   sync.RWMutex
	tree *rtree.Tree
}

// Engine answers predictive top-k and aggregate queries over a virtual
// knowledge graph.
//
// # Concurrency
//
// The engine is safe for concurrent use through its query and update
// methods: TopKTails/TopKHeads, AggregateTails/AggregateHeads (and their
// NoIndex/Exact variants), AddFact, InsertEntity, Save, and IndexStats.
// The paper's core idea makes even read-only-looking queries potential
// writers — cracking means queries mutate the index — so the locking is
// two-level:
//
//   - e.mu, the engine lock, guards everything that grows or is replaced
//     wholesale: the graph, the model, the point set, and the lazy
//     materialization of shard roots. Queries hold it in read mode for
//     their entire lifetime; AddFact and InsertEntity hold it in write mode
//     and therefore exclude all queries (and all shard-lock holders, since
//     shard locks are only ever taken under e.mu.RLock).
//   - each shard has its own RWMutex guarding its tree's structure. Walks
//     (top-k, aggregate balls, contour scans) take every shard's read lock;
//     cracking probes each shard with rtree.NeedsCrack under its read lock
//     and write-locks only the shards whose pending elements the query
//     region actually overlaps — one at a time, in ascending shard order,
//     with a double-check after acquiring the write lock. Warm regions (the
//     common case once the index converges, Figs. 9-11) never serialize,
//     and a cold region cracks without blocking queries in other shards.
//   - Save runs under the engine read lock plus all shard read locks:
//     snapshots don't block queries.
//
// Lock order is always e.mu before shard locks, and shard locks in
// ascending index order with at most one held in write mode, so the
// hierarchy is acyclic and deadlock-free.
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

	// router maps S2 points to shards by Morton prefix; shards holds one
	// locked cracked tree per cell, and trees caches the bare tree slice in
	// shard order for the merged walks. idxQueries counts indexed queries
	// engine-wide (a query that overlaps several shards is still one query,
	// so per-tree counters cannot be summed).
	router     *rtree.ShardRouter
	shards     []*engineShard
	trees      []*rtree.Tree
	idxQueries atomic.Int64

	params Params
	mode   IndexMode

	// gen counts graph mutations (AddFact, InsertEntity). The result cache
	// pins every entry to the generation it was computed at, so a mutation
	// invalidates all cached answers at once — any of them could have held
	// the mutated entity in its ball.
	gen   atomic.Uint64
	cache *resultCache

	// inflight coalesces duplicate top-k requests issued through Do/DoBatch:
	// the first caller of a key computes, the rest wait and share.
	sfMu     sync.Mutex
	inflight map[topkKey]*inflightCall

	// met is the engine's metric surface (counters, histograms, slow-query
	// log); always non-nil after initExec, so hot paths increment without
	// nil checks.
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

// initExec sets up the batch-executor state (metrics, result cache,
// singleflight map) and wires every shard tree to the node-access counters;
// called by both NewEngine and LoadEngine after the shards exist (the
// per-shard metric histograms are sized from len(e.shards)).
func (e *Engine) initExec() {
	e.traces = obs.NewTraceStore(0)
	e.met = newEngineMetrics(e)
	e.cache = newResultCache(defaultCacheSize, e.met.cacheHits, e.met.cacheMisses)
	e.inflight = make(map[topkKey]*inflightCall)
	for _, sh := range e.shards {
		sh.tree.SetAccessCounters(&e.met.nodeAccess)
	}
}

// buildIndex constructs the router and the per-shard trees from the current
// point set, honoring the (already resolved) Params.Shards. The single-shard
// case keeps the classical whole-set constructors so an unsharded engine is
// bit-for-bit the pre-sharding engine; with more shards the initial points
// are bucketed by Morton prefix and each bucket becomes an independent
// cracking tree over the shared PointSet.
//
// walappend:allow — index construction precedes WAL arming: the freshly
// built state is exactly what the next snapshot captures wholesale.
func (e *Engine) buildIndex() {
	n := e.params.Shards
	e.router = rtree.NewShardRouter(e.ps, e.ps.N(), shardBits(n))
	e.shards = make([]*engineShard, n)
	if n == 1 {
		var t *rtree.Tree
		if e.mode == Bulk {
			t = rtree.NewBulkLoaded(e.ps, e.params.Index)
		} else {
			t = rtree.NewCracking(e.ps, e.params.Index)
		}
		e.shards[0] = &engineShard{tree: t}
	} else {
		buckets := e.router.Assign(e.ps, e.ps.N())
		for i := range e.shards {
			e.shards[i] = &engineShard{tree: rtree.NewCrackingSubset(e.ps, e.params.Index, buckets[i])}
		}
	}
	e.trees = make([]*rtree.Tree, n)
	for i, sh := range e.shards {
		e.trees[i] = sh.tree
	}
}

// rlockShards acquires every shard's read lock in ascending order; the
// caller must hold e.mu.RLock. Merged walks hold all of them because a
// best-first search cannot know in advance which shards its shrinking bound
// will touch.
func (e *Engine) rlockShards() {
	var lc rtree.LockOrderCheck
	for i, sh := range e.shards {
		lc.Note(i)
		sh.mu.RLock()
	}
}

func (e *Engine) runlockShards() {
	for _, sh := range e.shards {
		sh.mu.RUnlock()
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
	p.Shards = resolveShards(p.Shards, mode)

	g.Freeze() // idempotent; sorts adjacency for the binary-search filters

	tf := jl.New(m.Dim, p.Alpha, p.Seed)
	ps := rtree.NewPointSet(p.Alpha, tf.ApplyAll(m.Entities))
	for _, name := range p.Attrs {
		col, ok := g.AttrColumn(name)
		if !ok {
			return nil, fmt.Errorf("core: %w: %q", ErrUnknownAttribute, name)
		}
		ps.RegisterAttr(name, col)
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

// Tree returns the S2 index of the first shard (for stats and tests); with
// an unsharded engine (Params.Shards == 1) this is the whole index.
func (e *Engine) Tree() *rtree.Tree { return e.shards[0].tree }

// NumShards returns the number of spatial shards the index is split into.
func (e *Engine) NumShards() int { return len(e.shards) }

// Router returns the Morton-prefix shard router (for tests).
func (e *Engine) Router() *rtree.ShardRouter { return e.router }

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

// StructureHash digests the structural state of the whole index — the
// shard router frame, each shard tree's StructureHash, and the registered
// attribute columns — into one 64-bit value. A snapshot plus WAL replay
// must land on exactly the hash the live engine had at its last append;
// the WAL tests assert this equivalence.
func (e *Engine) StructureHash() uint64 {
	e.prepareIndex()
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.rlockShards()
	defer e.runlockShards()
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	var buf [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putU64(uint64(e.ps.Dim))
	putU64(uint64(e.ps.N()))
	lo, hi := e.router.Frame()
	for _, v := range lo {
		putU64(math.Float64bits(v))
	}
	for _, v := range hi {
		putU64(math.Float64bits(v))
	}
	putU64(uint64(len(e.shards)))
	for _, sh := range e.shards {
		putU64(sh.tree.StructureHash())
	}
	for _, name := range e.ps.AttrNames() {
		putU64(uint64(len(name)))
		io.WriteString(h, name)
	}
	return h.Sum64()
}

// IndexStats reports the index structure counters (Figs. 9-11), summed over
// all shards (Height is the maximum; Queries is the engine-wide count, since
// a query that overlapped several shards is still one query).
func (e *Engine) IndexStats() rtree.Stats {
	e.prepareIndex()
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.rlockShards()
	defer e.runlockShards()
	st := e.shards[0].tree.Stats()
	for _, sh := range e.shards[1:] {
		s := sh.tree.Stats()
		st.InternalNodes += s.InternalNodes
		st.LeafNodes += s.LeafNodes
		st.PendingNodes += s.PendingNodes
		st.TotalNodes += s.TotalNodes
		st.BinarySplits += s.BinarySplits
		st.ExploredSplits += s.ExploredSplits
		st.SizeBytes += s.SizeBytes
		st.Points += s.Points
		st.ArenaNodesInUse += s.ArenaNodesInUse
		st.ArenaNodesFree += s.ArenaNodesFree
		st.ArenaBytes += s.ArenaBytes
		if s.Height > st.Height {
			st.Height = s.Height
		}
	}
	st.Queries = int(e.idxQueries.Load())
	return st
}

// CheckInvariants verifies every shard's structural invariants plus the
// cross-shard one: the shards together own exactly the point set, each point
// in exactly one shard. Intended for tests; O(n log n).
func (e *Engine) CheckInvariants() error {
	e.prepareIndex()
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.rlockShards()
	defer e.runlockShards()
	total := 0
	for i, sh := range e.shards {
		if err := sh.tree.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		total += sh.tree.Stats().Points
	}
	if total != e.ps.N() {
		return fmt.Errorf("shards cover %d of %d points", total, e.ps.N())
	}
	return nil
}

// prepareIndex materializes the lazy shard roots under the engine write
// lock, so that everything that follows under the read lock is genuinely
// read-only (Crack's own ensureRoot is then a no-op, and never writes a root
// pointer under a mere shard lock). All the roots are built in one batch,
// their sort orders concurrently. A no-op once every root exists; it reports
// whether it built anything, which is the first query's share of the index
// build.
func (e *Engine) prepareIndex() bool {
	e.mu.RLock()
	ready := true
	for _, sh := range e.shards {
		if !sh.tree.Ready() {
			ready = false
			break
		}
	}
	e.mu.RUnlock()
	if ready {
		return false
	}
	e.mu.Lock()
	rtree.PrepareAll(e.trees)
	e.mu.Unlock()
	return true
}

// finishQuery completes a query that was computed under the engine read lock
// (which the caller still holds, shard locks released): each shard is probed
// with NeedsCrack under its read lock, and only shards whose pending
// elements the query region overlaps are write-locked and cracked — one at a
// time, re-checking under the write lock since a concurrent query may have
// cracked the same region meanwhile. The engine read lock is released at the
// end either way. Split and node-creation deltas are captured under the
// shard write lock (both accessors are O(1)), so the crack counters
// attribute exactly this query's structural work.
func (e *Engine) finishQuery(q rtree.Rect, doCrack bool, tr *obs.QueryTrace) {
	if !doCrack {
		e.mu.RUnlock()
		tr.Step(obs.StageCrack)
		return
	}
	e.idxQueries.Add(1)
	var splits, nodes int
	cracked := false
	var lc rtree.LockOrderCheck
	for i, sh := range e.shards {
		lc.Note(i)
		sh.mu.RLock()
		needs := sh.tree.NeedsCrack(q)
		sh.mu.RUnlock()
		if !needs {
			continue
		}
		t0 := time.Now()
		sh.mu.Lock()
		wait := time.Since(t0)
		e.met.lockWriteWait.Observe(wait.Seconds())
		e.met.shardWriteWait[i].Observe(wait.Seconds())
		if sh.tree.NeedsCrack(q) {
			splits0, nodes0 := sh.tree.Splits(), sh.tree.NodesCreated()
			c0 := time.Now()
			sh.tree.Crack(q)
			// Log the crack while still holding this shard's write lock:
			// per-shard record order then matches apply order, which replay
			// depends on (cracks commute across shards, not within one).
			e.walAppendCrack(i, q)
			held := time.Since(c0)
			ds := sh.tree.Splits() - splits0
			dn := sh.tree.NodesCreated() - nodes0
			splits += ds
			nodes += dn
			e.met.crackLock.Observe(held.Seconds())
			e.met.shardCrackLock[i].Observe(held.Seconds())
			// Per-shard child span: which shard this query write-locked, how
			// long it waited for the lock, how long it held it, and the
			// structural deltas — the shard-level anatomy of the crack stage.
			tr.AddShardSpan(i, t0, wait, held, ds, dn)
			cracked = true
		}
		sh.mu.Unlock()
	}
	e.mu.RUnlock()
	if cracked {
		e.met.crackQueries.Inc()
		e.met.crackSplits.Add(uint64(splits))
		e.met.crackNodes.Add(uint64(nodes))
	} else {
		e.met.warmQueries.Inc()
	}
	if tr != nil {
		tr.Splits, tr.NodesCreated = splits, nodes
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
// candidates that cannot enter the top-k need no exact distance. Callers
// pass e.m.EntityVec(id) afresh each time — InsertEntity reallocates
// e.m.Entities under the write lock, so a row outlives no read lock.
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

// skipTails returns the default E'-only filter for (h, r, ?) queries: the
// query entity itself and its known tails in E are excluded. The known-tail
// set is captured once as a sorted slice, so the per-candidate test is a
// branchless binary search instead of a map probe — this filter runs for
// every examined point of every query.
func (e *Engine) skipTails(h kg.EntityID, r kg.RelationID) func(kg.EntityID) bool {
	known := e.g.Tails(h, r) // sorted after Freeze
	return func(id kg.EntityID) bool {
		return id == h || containsSorted(known, id)
	}
}

// skipHeads is the analogous filter for (?, r, t) queries.
func (e *Engine) skipHeads(t kg.EntityID, r kg.RelationID) func(kg.EntityID) bool {
	known := e.g.Heads(t, r)
	return func(id kg.EntityID) bool {
		return id == t || containsSorted(known, id)
	}
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
