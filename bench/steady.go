package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"vkgraph/internal/embedding"
	"vkgraph/vkg"
)

// benchGraph is a generated graph with its embedding, ready to index.
type benchGraph interface {
	build() (*vkg.VKG, error)
	embedding() *embedding.Model
	// fresh returns a graph no system has mutated: the receiver itself for
	// a graph only ever read, a regenerated copy otherwise.
	fresh(mutated bool) benchGraph
}

func (s *synthGraph) embedding() *embedding.Model { return s.Model }
func (s *synthGraph) fresh(bool) benchGraph       { return s }
func (m *movieGraph) embedding() *embedding.Model { return m.Model }
func (m *movieGraph) fresh(mutated bool) benchGraph {
	if !mutated {
		return m
	}
	return m.regenerate()
}

// system is a running system under test: the VKG, the way a client reaches
// it, and how to shut it down.
type system struct {
	v     *vkg.VKG
	exec  execFunc
	http  *httpSystem // http-mixed only
	snap  string      // snapshot path of an armed WAL, update-wal only
	saveT time.Duration
	close func() error
}

// probeSet are the seeded probe queries of a workload's correctness gates;
// they are drawn from a random stream of their own, after the sequence.
type probeSet struct {
	precision []op // against the exact scan
	agg       []op // against the exact aggregate
	answers   []op // same answer by another route: HTTP, or after replay
}

// steadySpec is what the shared flow needs to know about a steady-state
// workload (every workload but cold-crack).
type steadySpec struct {
	name     string
	mutates  bool // the traffic mix changes the graph
	newGraph func() (benchGraph, error)
	sequence func(g benchGraph, nClients int) (sequence, probeSet, error)
	start    func(g benchGraph, nClients int, tr *tracer) (*system, error)
	// gates, when set, runs the workload's own correctness gates on a
	// system whose measured operations are done.
	gates func(rep *report, sys *system, pr probeSet) error
	// restart, when set, restarts the system and returns how long a user
	// waited for the first answer; it replaces the cold first query.
	restart func(rep *report, sys *system, pr probeSet) (time.Duration, error)
	// extra names the end-to-end latencies only this workload has and picks
	// their samples out of a measured part.
	extra map[string]func(*loadStats) []float64
}

// inProcessSystem wraps a built VKG whose clients call it directly. In a
// traced run the benchmark itself records the vkg span around each call.
func inProcessSystem(v *vkg.VKG, tr *tracer) *system {
	ctx := context.Background()
	return &system{v: v, close: func() error { return nil },
		exec: func(_ int, req uint64, o op) error {
			start := time.Now()
			err := applyOp(ctx, v, o)
			tr.record(layerVKG, "", req, start, time.Now())
			return err
		}}
}

// startWarm starts a system over g and warms it up; the first warm-up
// operation runs alone and is timed.
func (spec steadySpec) startWarm(rep *report, g benchGraph, seq sequence, nClients int, tr *tracer) (*system, time.Duration, error) {
	sys, err := spec.start(g, nClients, tr)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := sys.exec(0, 0, seq.Warm[0][0]); err != nil {
		sys.close()
		return nil, 0, fmt.Errorf("%s: first operation: %w", spec.name, err)
	}
	first := time.Since(t0)
	rest := append([][]op{seq.Warm[0][1:]}, seq.Warm[1:]...)
	warm := runLoad(rest, func(c int, _ uint64, o op) error { return sys.exec(c, 0, o) }, time.Time{})
	rep.count(warm)
	rep.Attempted++ // the first operation
	if warm.firstErr != nil {
		rep.violate("warm-up: %v", warm.firstErr)
	}
	return sys, first, nil
}

// cut splits each client's list into n consecutive parts of equal length.
func cut(perClient [][]op, n int) [][][]op {
	parts := make([][][]op, n)
	for i := range parts {
		for _, ops := range perClient {
			lo, hi := i*len(ops)/n, (i+1)*len(ops)/n
			parts[i] = append(parts[i], ops[lo:hi])
		}
	}
	return parts
}

// runSteady is the untraced run of a steady-state workload. The graph is
// generated once. Then, sz.reps times over: a fresh system is started on it,
// the first query is timed on the cold index, the warm-up converges it, and
// one part of the measured operation list is run by two clients. The gates
// follow the last part. Every time metric is the median over the
// repetitions: spreading the measurement over several short parts, seconds
// apart, each on its own index, is what lets the median discard the stretch
// during which the machine was busy with something else.
func runSteady(cfg runConfig, sz sizes, spec steadySpec) (*report, error) {
	rep := newReport(spec.name)
	t0 := time.Now()
	g0, err := spec.newGraph()
	if err != nil {
		return nil, err
	}
	seq, pr, err := spec.sequence(g0, clients)
	if err != nil {
		return nil, err
	}
	gen := time.Since(t0)

	var (
		sys                                *system
		setupS, firstMS, rates, p50s, p99s []float64
		extras                             = map[string][]float64{}
		topkSamples                        int
	)
	closeSys := func() error {
		if sys == nil {
			return nil
		}
		err := sys.close()
		sys = nil
		return err
	}
	defer closeSys()
	parts := cut(seq.Measured, sz.reps)
	for r, part := range parts {
		if err := closeSys(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var first time.Duration
		sys, first, err = spec.startWarm(rep, g0.fresh(spec.mutates), seq, clients, nil)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())

		st := runLoad(part, sys.exec, deadlineFor(cfg, len(parts)))
		rep.count(st)
		if st.firstErr != nil && spec.name != wlHTTPMixed {
			rep.violate("repetition %d: %v", r, st.firstErr)
		}
		sorted := st.sortedTopK()
		if len(sorted) == 0 {
			rep.violate("repetition %d: no top-k query succeeded", r)
			continue
		}
		topkSamples += len(sorted)
		rates = append(rates, float64(st.attempted-st.failed)/st.wall.Seconds())
		p50s = append(p50s, quantile(sorted, 0.50))
		p99s = append(p99s, quantile(sorted, 0.99))
		for name, pick := range spec.extra {
			extras[name] = append(extras[name], median(pick(st)))
			rep.Samples[name] += len(pick(st))
		}
		if r == len(parts)-1 {
			rep.Metrics["heap_bytes_per_entity"] = heapBytesPerEntity(sys.v.Graph().NumEntities())
			m := sys.v.Metrics()
			rep.Extra["cache_hit_rate"] = m.CacheHitRate()
			rep.Extra["shards"] = float64(m.Shards)
			if spec.gates != nil {
				if err := spec.gates(rep, sys, pr); err != nil {
					return nil, err
				}
			}
		}
		if spec.restart != nil {
			if first, err = spec.restart(rep, sys, pr); err != nil {
				return nil, err
			}
		}
		firstMS = append(firstMS, ms(first))
	}
	rep.Metrics["setup_s"] = gen.Seconds() + median(setupS)
	rep.Metrics["first_query_ms"] = median(firstMS)
	rep.Metrics["ops_per_s"] = median(rates)
	rep.Metrics["topk_p50_ms"] = median(p50s)
	rep.Metrics["topk_p99_ms"] = median(p99s)
	rep.Samples["topk_p50_ms"], rep.Samples["topk_p99_ms"] = topkSamples, topkSamples
	rep.Samples["first_query_ms"] = len(firstMS)
	rep.Extra["repetitions"] = float64(len(parts))
	for name, vals := range extras {
		rep.Extra[name] = median(vals)
	}
	return rep, gatePrecision(rep, sys.v, pr.precision)
}

// gatePrecision measures precision@10 against the exact scan and applies
// the gate.
func gatePrecision(rep *report, v *vkg.VKG, probes []op) error {
	p, err := precisionAt10(v, probes)
	if err != nil {
		return err
	}
	rep.Metrics["precision_at_10"] = p
	rep.Samples["precision_at_10"] = len(probes)
	if p < minPrecision {
		rep.violate("precision@10 %.4f is below %.2f", p, minPrecision)
	}
	return nil
}

// gateAggregates applies the aggregate gate: every estimate within the
// radius its own answer reported.
func gateAggregates(rep *report, v *vkg.VKG, probes []op) error {
	ac, err := checkAggregates(v, probes)
	if err != nil {
		return err
	}
	rep.Extra["agg_probes"] = float64(ac.Probes)
	rep.Extra["agg_mean_rel_err"] = ac.MeanRelErr
	if ac.Outside > 0 {
		rep.violate("%d of %d aggregate estimates lie outside their %.2f-confidence radius", ac.Outside, ac.Probes, aggConfidence)
	}
	return nil
}

// Workload names.
const (
	wlTopKLarge = "topk-large"
	wlHTTPMixed = "http-mixed"
	wlColdCrack = "cold-crack"
	wlUpdateWAL = "update-wal"
)

// Random streams of one seed: the operation sequence, the probes and the
// key pool each get their own, so changing one leaves the others alone.
const (
	streamSequence = iota
	streamProbes
	streamPool
)

func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*16 + stream))
}
