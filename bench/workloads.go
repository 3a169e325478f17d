package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"vkgraph/vkg"
)

// topkLarge: uniform top-k over synth-large, in process. The rtree walk and
// the S1 re-rank do the work; serve, cracking and the cache do none.
func topkLarge(cfg runConfig, sz sizes) steadySpec {
	return steadySpec{
		name:     wlTopKLarge,
		newGraph: func() (benchGraph, error) { return genSynth(sz.synth, datasetSeed) },
		sequence: func(g benchGraph, nClients int) (sequence, probeSet, error) {
			sg := g.(*synthGraph)
			rng := rngFor(cfg.Seed, streamSequence)
			warm := uniformTopK(rng, sz.warmTopK, sg.Users, sg.Likes)
			warm[0].Entity = 0 // the query set-up times on the cold index is the same in every run
			seq := sequence{
				Warm:     split(warm, nClients),
				Measured: split(uniformTopK(rng, sz.topkOps, sg.Users, sg.Likes), nClients),
			}
			return seq, probeSet{precision: synthProbes(cfg, sz, sg)}, nil
		},
		start: func(g benchGraph, _ int, tr *tracer) (*system, error) {
			v, err := g.build()
			if err != nil {
				return nil, err
			}
			return inProcessSystem(v, tr), nil
		},
	}
}

// movieSequence draws a movie workload's warm-up and measured lists from
// the Zipf key pool, and its probes from the same pool. The pool and the
// popularity rank of its keys belong to the data set and are the same in
// every run: which keys are hot decides how much a hot key costs, and with
// Zipf(1.1) the hottest key alone is a tenth of the traffic. The seed draws
// the operations.
func movieSequence(cfg runConfig, sz sizes, g benchGraph, nClients, warm, measured int, m mix) (sequence, probeSet, error) {
	pools, err := newKeyPools(rngFor(datasetSeed, streamPool), g.(*movieGraph).KG, sz.poolKeys)
	if err != nil {
		return sequence{}, probeSet{}, err
	}
	rng := rngFor(cfg.Seed, streamSequence)
	warmOps := pools.draw(rng, warm, m, 0)
	// The first operation, which set-up times on the cold index, is the
	// same in every run: the hottest key.
	warmOps[0] = pools.topk[0]
	seq := sequence{
		Warm:     split(warmOps, nClients),
		Measured: split(pools.draw(rng, measured, m, int32(warm)), nClients),
	}
	prng := rngFor(cfg.Seed, streamProbes)
	pick := func(pool []op, n int) []op {
		out := make([]op, n)
		for i := range out {
			out[i] = pool[prng.Intn(len(pool))]
		}
		return out
	}
	pr := probeSet{
		precision: pick(pools.topk, sz.moviePrecisionProbes),
		agg:       pick(pools.agg, sz.aggProbes),
		answers:   pick(pools.topk, max(sz.httpProbes, sz.replayProbes)),
	}
	pr.answers[0] = pools.topk[0] // the first query after a restart, also fixed
	return seq, pr, nil
}

// httpMixed: skewed top-k and aggregate traffic over loopback HTTP against
// the small graph. The engine does little; serve, JSON, tracing, the vkg
// conversion and the cache take the time.
func httpMixed(cfg runConfig, sz sizes) steadySpec {
	return steadySpec{
		name:     wlHTTPMixed,
		newGraph: func() (benchGraph, error) { return genMovie(sz.movie, sz.epochs, datasetSeed) },
		sequence: func(g benchGraph, nClients int) (sequence, probeSet, error) {
			return movieSequence(cfg, sz, g, nClients, sz.warmHTTP, sz.httpOps, mix{Agg: 10})
		},
		start: func(g benchGraph, nClients int, tr *tracer) (*system, error) {
			v, err := g.build()
			if err != nil {
				return nil, err
			}
			hs, err := startHTTP(v, g.(*movieGraph).KG, nClients, tr)
			if err != nil {
				return nil, err
			}
			return &system{v: v, exec: hs.exec, http: hs, close: hs.close}, nil
		},
		extra: map[string]func(*loadStats) []float64{
			"http_agg_p50_ms": func(st *loadStats) []float64 { return st.lat[opAgg] },
		},
		gates: func(rep *report, sys *system, pr probeSet) error {
			rep.Extra["shed"] += float64(sys.http.shed.Load())
			probes := pr.answers[:sz.httpProbes]
			overHTTP, err := sys.http.answers(probes)
			if err != nil {
				return err
			}
			inProc, err := answers(sys.v, probes)
			if err != nil {
				return err
			}
			if diff := sameAnswers(overHTTP, inProc); diff != "" {
				rep.violate("HTTP answer differs from in-process Do: %s", diff)
			}
			return gateAggregates(rep, sys.v, pr.agg)
		},
	}
}

// updateWAL: reads beside writes on the small graph with the WAL armed,
// then a restart from snapshot plus log. Mutations take the engine write
// lock, append to the log, insert into the index and invalidate the cache.
func updateWAL(cfg runConfig, sz sizes) steadySpec {
	walMix := mix{Agg: 5, AddFact: 6, Insert: 3, SetAttr: 1}
	dirs := 0
	return steadySpec{
		name:     wlUpdateWAL,
		mutates:  true,
		newGraph: func() (benchGraph, error) { return genMovie(sz.movie, sz.epochs, datasetSeed) },
		sequence: func(g benchGraph, nClients int) (sequence, probeSet, error) {
			return movieSequence(cfg, sz, g, nClients, sz.warmWAL, sz.walOps, walMix)
		},
		start: func(g benchGraph, _ int, tr *tracer) (*system, error) {
			v, err := g.build()
			if err != nil {
				return nil, err
			}
			dirs++
			dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("wal%d", dirs))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			sys := inProcessSystem(v, tr)
			sys.snap = filepath.Join(dir, "movie.vkg")
			// The zero WALConfig is the default policy: fsync on a 100 ms
			// ticker (WALSyncInterval).
			t0 := time.Now()
			if err := v.EnableWAL(sys.snap, vkg.WALConfig{}); err != nil {
				return nil, err
			}
			sys.saveT = time.Since(t0)
			sys.close = func() error {
				err := sys.v.CloseWAL() // the restarted VKG, after a restart
				os.RemoveAll(dir)
				return err
			}
			return sys, nil
		},
		extra: map[string]func(*loadStats) []float64{
			"upd_write_p50_ms": (*loadStats).writes,
		},
		gates: func(rep *report, sys *system, pr probeSet) error { return gateAggregates(rep, sys.v, pr.agg) },
		restart: func(rep *report, sys *system, pr probeSet) (time.Duration, error) {
			return restart(rep, sys, pr.answers[:sz.replayProbes])
		},
	}
}

// restart closes the log, loads snapshot plus log into a new VKG, which
// takes the old one's place in sys, and checks that replay reproduced the
// live index: same structure hash, same answers. It returns what a user
// waits for after a restart: LoadFileWAL up to the first answered query.
func restart(rep *report, sys *system, probes []op) (time.Duration, error) {
	// The probes run on the live VKG first: they may still crack, and those
	// splits belong in the log before the hash is taken.
	live, err := answers(sys.v, probes)
	if err != nil {
		return 0, err
	}
	liveHash := sys.v.Engine().StructureHash()
	appended := sys.v.Metrics().WAL.AppendedBytes
	if err := sys.v.CloseWAL(); err != nil {
		return 0, fmt.Errorf("closing WAL: %w", err)
	}

	t0 := time.Now()
	v2, err := vkg.LoadFileWAL(sys.snap, vkg.WALConfig{})
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	sys.v = v2 // so close() closes the log that is open now
	if _, err := answers(v2, probes[:1]); err != nil {
		return 0, err
	}
	waited := time.Since(t0)

	if h := v2.Engine().StructureHash(); h != liveHash {
		rep.violate("replay landed on structure hash %x, the live index had %x", h, liveHash)
	}
	replayed, err := answers(v2, probes)
	if err != nil {
		return 0, err
	}
	if diff := sameAnswers(replayed, live); diff != "" {
		rep.violate("answer after replay differs from the live answer: %s", diff)
	}
	wal := v2.Metrics().WAL
	rep.Metrics["persist.save_ms"] = ms(sys.saveT)
	rep.Metrics["persist.replay_ms"] = ms(wal.ReplayDuration)
	rep.Metrics["persist.replayed_records"] = float64(wal.ReplayedRecords)
	rep.Metrics["persist.wal_bytes"] = float64(appended)
	if fi, err := os.Stat(sys.snap); err == nil {
		rep.Metrics["persist.snapshot_bytes_per_entity"] = float64(fi.Size()) / float64(v2.Graph().NumEntities())
	}
	return waited, nil
}
