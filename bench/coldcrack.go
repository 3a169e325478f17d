package main

import (
	"sort"
	"time"

	"vkgraph/vkg"
)

// coldStats is one repetition of cold-crack: a fresh Build and the first
// queries it ever sees, from one client.
type coldStats struct {
	build      time.Duration
	first      time.Duration
	converge   time.Duration // wall time of all the queries, the first included
	lat        []float64     // ms, per query
	splitsAll  uint64
	splitsHead uint64 // splits done by the first sz.coldEarly queries
	failed     int
	firstErr   error
}

// coldRep builds a fresh index and runs the queries against it.
func coldRep(cfg runConfig, sz sizes, g *synthGraph, queries []op, tr *tracer) (*vkg.VKG, *coldStats, error) {
	cs := &coldStats{}
	t0 := time.Now()
	v, err := g.build()
	if err != nil {
		return nil, nil, err
	}
	cs.build = time.Since(t0)
	sys := inProcessSystem(v, tr)
	start := time.Now()
	for i, o := range queries {
		q0 := time.Now()
		if err := sys.exec(0, uint64(i)+1, o); err != nil {
			cs.failed++
			if cs.firstErr == nil {
				cs.firstErr = err
			}
			continue
		}
		d := time.Since(q0)
		if i == 0 {
			cs.first = d
		}
		cs.lat = append(cs.lat, ms(d))
		if i+1 == sz.coldEarly {
			cs.splitsHead = v.Metrics().CrackSplits
		}
	}
	cs.converge = time.Since(start)
	cs.splitsAll = v.Metrics().CrackSplits
	return v, cs, nil
}

// synthProbes are the precision probes of the synth-large workloads.
func synthProbes(cfg runConfig, sz sizes, g *synthGraph) []op {
	return uniformTopK(rngFor(cfg.Seed, streamProbes), sz.precisionProbes, g.Users, g.Likes)
}

// coldQueries is the cold-crack query list: distinct uniform users, the
// same list for every repetition, so repetitions do identical work and
// their median filters out the machine, not the input.
func coldQueries(cfg runConfig, sz sizes, g *synthGraph) []op {
	return distinctTopK(rngFor(cfg.Seed, streamSequence), sz.coldQueries, g.Users, g.Likes)
}

// runColdCrack: rtree.Crack and the crack write path dominate; this is the
// paper's headline cost, no offline build, the first queries pay.
func runColdCrack(cfg runConfig, sz sizes) (*report, error) {
	rep := newReport(wlColdCrack)
	t0 := time.Now()
	g, err := genSynth(sz.synth, datasetSeed)
	if err != nil {
		return nil, err
	}
	queries := coldQueries(cfg, sz, g)
	gen := time.Since(t0)

	var (
		v                       *vkg.VKG
		builds, firsts, converg []float64
		lat                     []float64
		early                   float64
	)
	for r := 0; r < sz.coldReps; r++ {
		v = nil // one index alive at a time
		var cs *coldStats
		v, cs, err = coldRep(cfg, sz, g, queries, nil)
		if err != nil {
			return nil, err
		}
		rep.Attempted += len(queries)
		rep.Failed += cs.failed
		if cs.firstErr != nil {
			rep.violate("repetition %d: %v", r, cs.firstErr)
		}
		builds = append(builds, cs.build.Seconds())
		firsts = append(firsts, ms(cs.first))
		converg = append(converg, cs.converge.Seconds())
		lat = append(lat, cs.lat...)
		if cs.splitsAll > 0 {
			early = float64(cs.splitsHead) / float64(cs.splitsAll)
		}
	}
	sort.Float64s(lat)
	rep.Metrics["setup_s"] = gen.Seconds() + median(builds)
	rep.Metrics["first_query_ms"] = median(firsts)
	rep.Metrics["ops_per_s"] = float64(len(queries)) / median(converg)
	rep.Metrics["topk_p50_ms"] = quantile(lat, 0.50)
	rep.Metrics["topk_p99_ms"] = quantile(lat, 0.99)
	rep.Samples["topk_p50_ms"], rep.Samples["topk_p99_ms"] = len(lat), len(lat)
	rep.Samples["first_query_ms"] = len(firsts)
	rep.Metrics["heap_bytes_per_entity"] = heapBytesPerEntity(v.Graph().NumEntities())
	rep.Extra["converge_s"] = median(converg)
	rep.Extra["early_split_share"] = early
	rep.Extra["shards"] = float64(v.Metrics().Shards)
	if early < 0.90 {
		rep.violate("only %.2f of the splits happened in the first %d queries", early, sz.coldEarly)
	}
	return rep, gatePrecision(rep, v, synthProbes(cfg, sz, g))
}
