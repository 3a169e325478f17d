package core

import (
	"vkgraph/internal/obs"
	"vkgraph/internal/rtree"
)

// engineMetrics is the engine's metric surface: every hot-path counter the
// paper's cost analysis is stated in (node accesses, candidates examined,
// splits performed, accesses under MaxAccess) plus the serving-layer ones
// (cache, coalescing, lock waits, latency histograms). All increments are
// atomic and lock-free; the registry only locks at registration and scrape
// time, so instrumentation adds no serialization to the query paths.
type engineMetrics struct {
	reg *obs.Registry

	topkQueries *obs.Counter
	aggQueries  *obs.Counter
	queryErrors *obs.Counter

	latTopK *obs.Histogram
	latAgg  *obs.Histogram

	examined *obs.Counter // candidates whose S1 distance was computed
	pruned   *obs.Counter // refinements aborted early by the kth-distance bound

	// nodeAccess is wired into the tree (SetAccessCounters): internal/leaf/
	// pending node visits of every index walk.
	nodeAccess rtree.AccessCounters

	aggAccessed *obs.Counter // a: ball points materialized in S1
	aggBall     *obs.Counter // b: probability-ball sizes
	aggCapped   *obs.Counter // aggregate queries truncated by MaxAccess

	crackQueries *obs.Counter   // queries whose region still needed splits
	warmQueries  *obs.Counter   // queries served entirely from warm regions
	crackSplits  *obs.Counter   // binary splits performed by cracking
	crackNodes   *obs.Counter   // tree nodes created by cracking
	crackLock    *obs.Histogram // seconds holding the write lock to crack

	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	sfCoalesced *obs.Counter

	lockReadWait  *obs.Histogram // seconds waiting to acquire the read lock
	lockWriteWait *obs.Histogram // seconds waiting to acquire a write lock

	// walFsync observes every durability barrier the WAL writer issues
	// (per-append under WALSyncAlways, per-tick under WALSyncInterval).
	walFsync *obs.Histogram
}

func newEngineMetrics(e *Engine) *engineMetrics {
	r := obs.NewRegistry()
	m := &engineMetrics{reg: r}

	m.topkQueries = r.Counter("vkg_queries_total", "Queries answered, by kind.", obs.Label{Key: "kind", Value: "topk"})
	m.aggQueries = r.Counter("vkg_queries_total", "Queries answered, by kind.", obs.Label{Key: "kind", Value: "aggregate"})
	m.queryErrors = r.Counter("vkg_query_errors_total", "Queries rejected by validation or execution errors.")

	m.latTopK = r.Histogram("vkg_query_latency_seconds", "Query latency, by kind.", nil, obs.Label{Key: "kind", Value: "topk"})
	m.latAgg = r.Histogram("vkg_query_latency_seconds", "Query latency, by kind.", nil, obs.Label{Key: "kind", Value: "aggregate"})

	m.examined = r.Counter("vkg_topk_candidates_examined_total", "Candidate entities whose S1 distance was computed (Algorithm 3).")
	m.pruned = r.Counter("vkg_topk_pruned_by_bound_total", "Candidate refinements aborted early by the running kth-distance bound.")

	r.CounterFunc("vkg_index_node_accesses_total", "Index nodes visited by traversals, by node type (the Lemma 3 cost).",
		m.nodeAccess.Internal.Load, obs.Label{Key: "type", Value: "internal"})
	r.CounterFunc("vkg_index_node_accesses_total", "Index nodes visited by traversals, by node type (the Lemma 3 cost).",
		m.nodeAccess.Leaf.Load, obs.Label{Key: "type", Value: "leaf"})
	r.CounterFunc("vkg_index_node_accesses_total", "Index nodes visited by traversals, by node type (the Lemma 3 cost).",
		m.nodeAccess.Pending.Load, obs.Label{Key: "type", Value: "pending"})

	m.aggAccessed = r.Counter("vkg_aggregate_points_accessed_total", "Ball points materialized in S1 by aggregate queries (a of Theorem 4).")
	m.aggBall = r.Counter("vkg_aggregate_ball_points_total", "Probability-ball sizes summed over aggregate queries (b of Theorem 4).")
	m.aggCapped = r.Counter("vkg_aggregate_maxaccess_capped_total", "Aggregate queries whose sample was truncated by MaxAccess.")

	m.crackQueries = r.Counter("vkg_crack_queries_total", "Queries by whether their region still needed cracking.", obs.Label{Key: "region", Value: "cold"})
	m.warmQueries = r.Counter("vkg_crack_queries_total", "Queries by whether their region still needed cracking.", obs.Label{Key: "region", Value: "warm"})
	m.crackSplits = r.Counter("vkg_crack_splits_total", "Binary splits performed by query-driven cracking.")
	m.crackNodes = r.Counter("vkg_crack_nodes_created_total", "Index nodes created by query-driven cracking.")
	m.crackLock = r.Histogram("vkg_crack_write_lock_seconds", "Time holding the index write lock to crack.", nil)

	m.cacheHits = r.Counter("vkg_cache_hits_total", "Top-k result cache hits.")
	m.cacheMisses = r.Counter("vkg_cache_misses_total", "Top-k result cache misses.")
	r.GaugeFunc("vkg_cache_entries", "Resident top-k result cache entries.", func() float64 {
		return float64(e.CacheStats().Entries)
	})
	m.sfCoalesced = r.Counter("vkg_singleflight_coalesced_total", "Top-k requests that shared another in-flight execution.")

	m.lockReadWait = r.Histogram("vkg_lock_wait_seconds", "Time waiting to acquire the engine lock, by mode.", nil, obs.Label{Key: "mode", Value: "read"})
	m.lockWriteWait = r.Histogram("vkg_lock_wait_seconds", "Time waiting to acquire the engine lock, by mode.", nil, obs.Label{Key: "mode", Value: "write"})

	stats := func(f func(obs.TraceStoreStats) uint64) func() uint64 {
		return func() uint64 { return f(e.traces.Stats()) }
	}
	r.CounterFunc("vkg_trace_records_offered_total", "Trace records offered to the trace store.",
		stats(func(s obs.TraceStoreStats) uint64 { return s.Offered }))
	r.CounterFunc("vkg_trace_records_kept_total", "Trace records retained, by the retention rule that fired.",
		stats(func(s obs.TraceStoreStats) uint64 { return s.KeptForced }), obs.Label{Key: "reason", Value: "forced"})
	r.CounterFunc("vkg_trace_records_kept_total", "Trace records retained, by the retention rule that fired.",
		stats(func(s obs.TraceStoreStats) uint64 { return s.KeptTail }), obs.Label{Key: "reason", Value: "tail"})
	r.CounterFunc("vkg_trace_records_kept_total", "Trace records retained, by the retention rule that fired.",
		stats(func(s obs.TraceStoreStats) uint64 { return s.KeptSlow }), obs.Label{Key: "reason", Value: "slow"})
	r.CounterFunc("vkg_trace_records_kept_total", "Trace records retained, by the retention rule that fired.",
		stats(func(s obs.TraceStoreStats) uint64 { return s.KeptHead }), obs.Label{Key: "reason", Value: "head"})
	r.CounterFunc("vkg_trace_records_evicted_total", "Retained trace records overwritten by newer ones.",
		stats(func(s obs.TraceStoreStats) uint64 { return s.Evicted }))
	r.GaugeFunc("vkg_trace_store_resident", "Trace records currently retained.", func() float64 {
		return float64(e.traces.Len())
	})

	// Write-ahead log counters: the append side reads the walState atomics
	// directly (registered before the log is armed — they are embedded by
	// value on the engine), the replay side describes the warm-up of the
	// most recent load.
	m.walFsync = r.Histogram("vkg_wal_fsync_seconds", "WAL fsync latency (per append under sync=always, per tick under sync=interval).", nil)
	r.CounterFunc("vkg_wal_appended_records_total", "Records appended to the write-ahead log.", e.wal.appended.Load)
	r.CounterFunc("vkg_wal_appended_bytes_total", "Bytes appended to the write-ahead log.", e.wal.bytes.Load)
	r.CounterFunc("vkg_wal_rotations_total", "Write-ahead log rotations (one per WAL-armed snapshot).", e.wal.rotations.Load)
	r.CounterFunc("vkg_wal_append_errors_total", "Records lost to WAL append failures (including records skipped while disarmed by a sticky error).", e.wal.appendErrs.Load)
	r.CounterFunc("vkg_wal_replay_records_total", "WAL records replayed at load to warm the index.", e.wal.replayRecords.Load)
	r.CounterFunc("vkg_wal_replay_dropped_bytes_total", "Torn or corrupt WAL suffix bytes truncated at load.", e.wal.replayDropped.Load)
	r.CounterFunc("vkg_wal_replay_truncations_total", "Loads that truncated a torn or corrupt WAL suffix.", e.wal.replayTorn.Load)
	r.CounterFunc("vkg_wal_replay_stale_total", "WAL files discarded whole for a snapshot-generation mismatch.", e.wal.replayStale.Load)
	r.GaugeFunc("vkg_wal_replay_seconds", "Wall time the most recent load spent replaying the WAL.", func() float64 {
		return float64(e.wal.replayNanos.Load()) / 1e9
	})

	// Degraded-load visibility: attributes the snapshot named but the
	// loaded graph did not carry (dropped instead of failing the load).
	r.GaugeFunc("vkg_load_dropped_attrs", "Attributes dropped at load because the snapshot named them but the graph lacked their columns.", func() float64 {
		return float64(len(e.droppedAttrs))
	})

	r.GaugeFunc("vkg_graph_generation", "Graph mutation counter (AddFact/InsertEntity).", func() float64 {
		return float64(e.gen.Load())
	})
	// The node count is the arena's, O(1); the size walks the tree.
	r.GaugeFunc("vkg_index_nodes", "Current index node count.", func() float64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		e.idx.mu.RLock()
		defer e.idx.mu.RUnlock()
		return float64(e.idx.tree.Nodes())
	})
	r.GaugeFunc("vkg_index_size_bytes", "Index size in bytes (arena slabs plus referenced heap).", func() float64 {
		return float64(e.IndexStats().SizeBytes)
	})

	// Memory layout: the points resident beside the arena, O(1).
	r.GaugeFunc("vkg_mem_resident_points", "Points resident in the shared S2 point set.", func() float64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return float64(e.ps.N())
	})
	return m
}

// Registry returns the engine's metric registry (for the serving layer's
// /metrics page and tests).
func (e *Engine) Registry() *obs.Registry { return e.met.reg }

// Traces returns the engine's trace store: the bounded ring of retained
// query traces behind the /traces ops endpoint, and the one record of slow
// queries (those at or above its slow threshold). Head sampling starts
// disabled; servers arm it via Traces().SetHeadRate.
func (e *Engine) Traces() *obs.TraceStore { return e.traces }

// Metrics is a structured point-in-time view of every engine counter: query
// volumes and latency distributions, the paper's cost counters (node
// accesses of Lemma 3, candidates examined, a and b of Theorem 4), the
// cracking activity of Section IV, and the serving-layer cache/coalescing/
// lock statistics. Counters accumulate from Build; LatencyStats percentiles
// are over all observations so far.
type Metrics struct {
	// TopKQueries and AggregateQueries count queries executed against the
	// index; answers served from the result cache or coalesced onto another
	// in-flight execution are counted by Cache.Hits and Coalesced instead.
	// QueryErrors counts rejections (unknown ids, execution failures).
	TopKQueries      uint64
	AggregateQueries uint64
	QueryErrors      uint64

	TopKLatency      obs.LatencyStats
	AggregateLatency obs.LatencyStats

	// CandidatesExamined counts entities whose exact S1 distance was
	// computed — the dominant query cost. PrunedByBound counts candidate
	// refinements abandoned early by the running kth-distance bound.
	CandidatesExamined uint64
	PrunedByBound      uint64

	// NodeAccess* count index nodes visited by traversals, by node type —
	// the access cost the paper's Lemma 3 bounds.
	NodeAccessInternal uint64
	NodeAccessLeaf     uint64
	NodeAccessPending  uint64

	// AggPointsAccessed (a) and AggBallPoints (b) are summed over aggregate
	// queries (Theorem 4); AggMaxAccessCapped counts queries whose sample
	// was truncated by MaxAccess.
	AggPointsAccessed  uint64
	AggBallPoints      uint64
	AggMaxAccessCapped uint64

	// CrackQueries/WarmQueries split queries by whether their region still
	// needed cracking; a converging index drives the cold share toward 0.
	CrackQueries      uint64
	WarmQueries       uint64
	CrackSplits       uint64
	CrackNodesCreated uint64
	// CrackWriteLock is the time spent holding the index write lock to
	// crack, per query that had to split.
	CrackWriteLock obs.LatencyStats

	// Cache and Coalesced cover the serving layer: the top-k result cache,
	// and the requests that waited on another's pending slot in it.
	Cache     CacheStats
	Coalesced uint64

	// ReadLockWait and WriteLockWait measure contention on the engine lock
	// (WriteLockWait also folds in the waits for the index write lock).
	ReadLockWait  obs.LatencyStats
	WriteLockWait obs.LatencyStats

	// Shards is always 1: the index is one tree. Only bench/ reads it; it
	// goes with ROADMAP item 20, the next change to bench/.
	Shards int

	// Index is the current index structure (also available via IndexStats).
	Index rtree.Stats

	// WAL is the write-ahead log state: appends and rotations on the write
	// side, replay and truncation counters from the most recent load.
	WAL WALStats

	// DroppedAttributes lists attributes the snapshot named but the loaded
	// graph lacked; the load dropped them (degraded) instead of failing.
	DroppedAttributes []string

	// Generation counts the graph mutations a top-k answer can see
	// (AddFact, InsertEntity); cached answers are pinned to the generation
	// they were computed at.
	Generation uint64
}

// CacheHitRate returns hits / (hits + misses), or 0 before any lookup.
func (m Metrics) CacheHitRate() float64 {
	total := m.Cache.Hits + m.Cache.Misses
	if total == 0 {
		return 0
	}
	return float64(m.Cache.Hits) / float64(total)
}

// Metrics captures the current engine counters. It is race-clean under
// concurrent queries but not an instantaneous cut: counters are read one
// atomic load at a time.
func (e *Engine) Metrics() Metrics {
	m := e.met
	index := e.IndexStats()
	return Metrics{
		TopKQueries:        m.topkQueries.Value(),
		AggregateQueries:   m.aggQueries.Value(),
		QueryErrors:        m.queryErrors.Value(),
		TopKLatency:        m.latTopK.Snapshot().Latency(),
		AggregateLatency:   m.latAgg.Snapshot().Latency(),
		CandidatesExamined: m.examined.Value(),
		PrunedByBound:      m.pruned.Value(),
		NodeAccessInternal: m.nodeAccess.Internal.Load(),
		NodeAccessLeaf:     m.nodeAccess.Leaf.Load(),
		NodeAccessPending:  m.nodeAccess.Pending.Load(),
		AggPointsAccessed:  m.aggAccessed.Value(),
		AggBallPoints:      m.aggBall.Value(),
		AggMaxAccessCapped: m.aggCapped.Value(),
		CrackQueries:       m.crackQueries.Value(),
		WarmQueries:        m.warmQueries.Value(),
		CrackSplits:        m.crackSplits.Value(),
		CrackNodesCreated:  m.crackNodes.Value(),
		CrackWriteLock:     m.crackLock.Snapshot().Latency(),
		Cache:              e.CacheStats(),
		Coalesced:          m.sfCoalesced.Value(),
		ReadLockWait:       m.lockReadWait.Snapshot().Latency(),
		WriteLockWait:      m.lockWriteWait.Snapshot().Latency(),
		Shards:             1,
		Index:              index,
		WAL:                e.WALStats(),
		DroppedAttributes:  e.DroppedAttrs(),
		Generation:         e.gen.Load(),
	}
}
