package main

import (
	"fmt"
	"path/filepath"

	"vkgraph/vkg"
)

// A traced run is the per-layer run of one workload: one client and a
// quarter of the measured operations, so that every count repeats exactly.
// It makes three passes over the same sequence: an untraced reference pass,
// the traced pass whose spans and counter deltas attribute the work, and the
// ladder replays for the layers below vkg. The traced pass against the
// reference pass is the cost of the benchmark's own tracing.

// withSpanFile gives a traced run its tracer and writes the spans out once
// the run is over.
func withSpanFile(name string, cfg runConfig, run func(*tracer) (*report, error)) (*report, error) {
	tr := newTracer()
	rep, err := run(tr)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(cfg.Out, "spans-"+name+".jsonl")
	if err := tr.writeFile(out); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans of %s: %d written to %s\n", name, len(tr.spans), out)
	return rep, nil
}

// lockTotalMS is the total time a lock histogram has seen, in ms.
func lockTotalMS(l vkg.LatencyStats) float64 { return float64(l.Count) * ms(l.Mean) }

func perQuery(total, queries uint64) float64 {
	if queries == 0 {
		return 0
	}
	return float64(total) / float64(queries)
}

// countLayers fills the layer metrics that are deltas of vkg.Metrics()
// across the traced pass.
func countLayers(out map[string]float64, m0, m1 vkg.Metrics, st *loadStats) {
	topk := m1.TopKQueries - m0.TopKQueries // executed on the index, cache hits excluded
	aggs := m1.AggregateQueries - m0.AggregateQueries
	nodes := (m1.NodeAccessInternal + m1.NodeAccessLeaf + m1.NodeAccessPending) -
		(m0.NodeAccessInternal + m0.NodeAccessLeaf + m0.NodeAccessPending)
	out["core.examined_per_query"] = perQuery(m1.CandidatesExamined-m0.CandidatesExamined, topk)
	out["core.pruned_per_query"] = perQuery(m1.PrunedByBound-m0.PrunedByBound, topk)
	out["core.node_access_per_query"] = perQuery(nodes, topk+aggs)
	out["core.agg_points_accessed_per_query"] = perQuery(m1.AggPointsAccessed-m0.AggPointsAccessed, aggs)
	out["core.agg_ball_points_per_query"] = perQuery(m1.AggBallPoints-m0.AggBallPoints, aggs)
	hits, misses := m1.Cache.Hits-m0.Cache.Hits, m1.Cache.Misses-m0.Cache.Misses
	out["core.cache_hit_rate"] = perQuery(hits, hits+misses)
	out["core.coalesced"] = float64(m1.Coalesced - m0.Coalesced)
	out["rtree.splits"] = float64(m1.CrackSplits - m0.CrackSplits)
	out["rtree.nodes_created"] = float64(m1.CrackNodesCreated - m0.CrackNodesCreated)
	out["core.crack_write_lock_ms_total"] = lockTotalMS(m1.CrackWriteLock) - lockTotalMS(m0.CrackWriteLock)
	out["core.write_lock_wait_ms_total"] = lockTotalMS(m1.WriteLockWait) - lockTotalMS(m0.WriteLockWait)
	out["core.wal_appended_records"] = float64(m1.WAL.AppendedRecords - m0.WAL.AppendedRecords)
	out["core.wal_bytes_per_mutation"] = perQuery(m1.WAL.AppendedBytes-m0.WAL.AppendedBytes, uint64(len(st.writes())))
	out["core.insert_entity_us"] = 1e3 * mean(st.lat[opInsert])
	out["core.add_fact_us"] = 1e3 * mean(st.lat[opAddFact])
}

func runSteadyTraced(cfg runConfig, sz sizes, spec steadySpec, tr *tracer) (*report, error) {
	rep := newReport(spec.name)
	g0, err := spec.newGraph()
	if err != nil {
		return nil, err
	}
	seq, pr, err := spec.sequence(g0, 1)
	if err != nil {
		return nil, err
	}

	// Reference pass, untraced.
	ref, _, err := spec.startWarm(rep, g0.fresh(spec.mutates), seq, 1, nil)
	if err != nil {
		return nil, err
	}
	stRef := runLoad(seq.Measured, ref.exec, deadlineFor(cfg, 1))
	rep.count(stRef)
	if err := ref.close(); err != nil {
		return nil, err
	}

	// Traced pass.
	sys, _, err := spec.startWarm(rep, g0.fresh(spec.mutates), seq, 1, tr)
	if err != nil {
		return nil, err
	}
	defer func() { sys.close() }()
	m0 := sys.v.Metrics()
	st := runLoad(seq.Measured, sys.exec, deadlineFor(cfg, 1))
	m1 := sys.v.Metrics()
	rep.count(st)
	if st.firstErr != nil && spec.name != wlHTTPMixed {
		rep.violate("traced pass: %v", st.firstErr)
	}
	countLayers(rep.Metrics, m0, m1, st)
	rep.Metrics["bench.trace_overhead_pct"] = 100 * (st.wall.Seconds() - stRef.wall.Seconds()) / stRef.wall.Seconds()
	rep.Extra["shards"] = float64(m1.Shards)
	if sys.http != nil {
		n := float64(st.attempted)
		rep.Metrics["wire.self_us"] = tr.selfTimeUS(layerWire, layerServe)
		rep.Metrics["serve.self_us"] = tr.selfTimeUS(layerServe, layerVKG)
		rep.Metrics["serve.shed"] = float64(sys.http.shed.Load())
		rep.Metrics["wire.request_bytes"] = float64(sys.http.reqBytes.Load()) / n
		rep.Metrics["wire.response_bytes"] = float64(sys.http.respBytes.Load()) / n
	}

	if spec.gates != nil {
		if err := spec.gates(rep, sys, pr); err != nil {
			return nil, err
		}
	}
	if spec.restart != nil {
		if _, err := spec.restart(rep, sys, pr); err != nil {
			return nil, err
		}
	}
	if err := gatePrecision(rep, sys.v, pr.precision); err != nil {
		return nil, err
	}

	if err := runLadder(rep.Metrics, g0, seq.Warm[0], seq.Measured[0]); err != nil {
		return nil, err
	}
	if sys.http != nil {
		// The handler rung replays what the traced pass ran, without the
		// wire. With the wire's self time added it should be what the
		// client saw, if rungs and spans measure the same thing.
		handlerUS, err := serveRung(rep.Metrics, g0.(*movieGraph), seq.Warm[0], seq.Measured[0])
		if err != nil {
			return nil, fmt.Errorf("serve rung: %w", err)
		}
		rep.Extra["span_sum_over_wire"] = (rep.Metrics["wire.self_us"] + handlerUS) / tr.meanUS(layerWire)
	}
	return rep, nil
}

// runColdTraced is cold-crack's traced run. The sequence keeps its full
// length: a quarter of it would not converge the index, and convergence is
// what the workload measures.
func runColdTraced(cfg runConfig, sz sizes, tr *tracer) (*report, error) {
	rep := newReport(wlColdCrack)
	g, err := genSynth(sz.synth, datasetSeed)
	if err != nil {
		return nil, err
	}
	queries := coldQueries(cfg, sz, g)
	_, ref, err := coldRep(cfg, sz, g, queries, nil)
	if err != nil {
		return nil, err
	}
	v, cs, err := coldRep(cfg, sz, g, queries, tr)
	if err != nil {
		return nil, err
	}
	rep.Attempted = 2 * len(queries)
	rep.Failed = ref.failed + cs.failed
	if cs.firstErr != nil {
		rep.violate("traced pass: %v", cs.firstErr)
	}
	// The index was built inside the pass, so the deltas start from zero.
	countLayers(rep.Metrics, vkg.Metrics{}, v.Metrics(), &loadStats{})
	rep.Metrics["bench.trace_overhead_pct"] = 100 * (cs.converge.Seconds() - ref.converge.Seconds()) / ref.converge.Seconds()
	rep.Extra["shards"] = float64(v.Metrics().Shards)
	rep.Extra["early_split_share"] = float64(cs.splitsHead) / float64(max(cs.splitsAll, 1))
	if err := gatePrecision(rep, v, synthProbes(cfg, sz, g)); err != nil {
		return nil, err
	}
	return rep, runLadder(rep.Metrics, g, nil, queries)
}
