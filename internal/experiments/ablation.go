package experiments

import (
	"fmt"
	"io"
	"time"

	"vkgraph/internal/core"
	"vkgraph/internal/embedding"
	"vkgraph/internal/kg/kggen"
)

// Ablations beyond the paper's figures: they probe the design choices that
// DESIGN.md calls out — how the crack-vs-scan gap scales with graph size
// (the paper's "the larger the knowledge graph, the greater the difference"),
// and how alpha and eps trade accuracy against query cost.

// ScaleRow is one graph size of the scale ablation.
type ScaleRow struct {
	Entities   int
	NoIndexAvg time.Duration
	CrackAvg   time.Duration
	Speedup    float64
	Examined   float64 // mean fraction of entities examined per query
}

// AblationScale sweeps the Freebase generator over graph sizes and measures
// the steady-state query time of the no-index scan versus the cracking
// index. The paper's scaling claim corresponds to Speedup growing with
// Entities.
func AblationScale(scale Scale, w io.Writer) error {
	sizes := []int{6000, 12000, 24000, 48000}
	if scale == Tiny {
		sizes = []int{800, 1600}
	}
	fmt.Fprintf(w, "%10s %12s %12s %10s %12s\n", "entities", "noindex", "crack", "speedup", "examined")
	for _, n := range sizes {
		cfg := kggen.DefaultFreebaseConfig()
		ratio := float64(n) / float64(cfg.Entities)
		cfg.Entities = n
		cfg.Edges = int(float64(cfg.Edges) * ratio)
		g := kggen.Freebase(cfg)

		tr, err := embedding.Train(g, trainConfig(scale))
		if err != nil {
			return err
		}

		eng, err := core.NewEngine(g, tr.Model, core.Crack, core.DefaultParams())
		if err != nil {
			return err
		}
		workload := Workload(g, 220, 99)
		for _, q := range workload[:20] {
			runQuery(eng, q, 10, false)
		}
		var examined int
		start := time.Now()
		for _, q := range workload[20:] {
			examined += runQuery(eng, q, 10, false)
		}
		crackAvg := time.Since(start) / 200

		start = time.Now()
		for _, q := range workload[20:] {
			runQuery(eng, q, 10, true)
		}
		noIdxAvg := time.Since(start) / 200

		row := ScaleRow{
			Entities:   g.NumEntities(),
			NoIndexAvg: noIdxAvg,
			CrackAvg:   crackAvg,
			Speedup:    float64(noIdxAvg) / float64(crackAvg),
			Examined:   float64(examined/200) / float64(g.NumEntities()),
		}
		fmt.Fprintf(w, "%10d %12s %12s %9.2fx %11.1f%%\n",
			row.Entities, fmtDur(row.NoIndexAvg), fmtDur(row.CrackAvg),
			row.Speedup, 100*row.Examined)
	}
	return nil
}

func runQuery(eng *core.Engine, q Query, k int, noIndex bool) int {
	var res *core.TopKResult
	if noIndex {
		res, _ = eng.TopKNoIndex(q.Dir, q.E, q.R, k)
	} else {
		res, _ = eng.TopK(q.Dir, q.E, q.R, k)
	}
	if res == nil {
		return 0
	}
	return res.Examined
}

// AblationAlpha sweeps the S2 dimensionality on the Freebase dataset:
// higher alpha preserves distances better (fewer false positives, higher
// precision) at higher per-node index cost.
func AblationAlpha(scale Scale, w io.Writer) error {
	ds, err := LoadDataset("freebase", scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%6s %12s %12s %12s %12s\n", "alpha", "build", "crackAvg", "examined", "precision")
	for _, alpha := range []int{2, 3, 4, 6, 8} {
		p := core.DefaultParams()
		p.Alpha = alpha
		buildStart := time.Now()
		eng, err := core.NewEngine(ds.G, ds.M, core.Crack, p)
		if err != nil {
			return err
		}
		build := time.Since(buildStart)
		workload := Workload(ds.G, 170, 99)
		for _, q := range workload[:20] {
			runQuery(eng, q, 10, false)
		}
		var examined int
		start := time.Now()
		for _, q := range workload[20:120] {
			examined += runQuery(eng, q, 10, false)
		}
		avg := time.Since(start) / 100

		// Precision@10 on a query sample against the exact scan.
		var prec float64
		for _, q := range workload[120:] {
			idx, _ := eng.TopK(q.Dir, q.E, q.R, 10)
			exact, _ := eng.TopKNoIndex(q.Dir, q.E, q.R, 10)
			want := map[int32]bool{}
			for _, pr := range exact.Predictions {
				want[pr.Entity] = true
			}
			hit := 0
			for _, pr := range idx.Predictions {
				if want[pr.Entity] {
					hit++
				}
			}
			if len(want) > 0 {
				prec += float64(hit) / float64(len(want))
			}
		}
		prec /= 50
		fmt.Fprintf(w, "%6d %12s %12s %11.1f%% %12.4f\n",
			alpha, fmtDur(build), fmtDur(avg),
			100*float64(examined/100)/float64(ds.G.NumEntities()), prec)
	}
	return nil
}

// AblationEps sweeps the query-expansion epsilon: the Theorem 2 recall knob
// against the examined-candidate cost.
func AblationEps(scale Scale, w io.Writer) error {
	ds, err := LoadDataset("freebase", scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%6s %12s %12s %12s %14s\n", "eps", "crackAvg", "examined", "precision", "recallBound")
	for _, eps := range []float64{0.1, 0.25, 0.5, 0.75, 1.0, 1.5} {
		p := core.DefaultParams()
		p.Eps = eps
		eng, err := core.NewEngine(ds.G, ds.M, core.Crack, p)
		if err != nil {
			return err
		}
		workload := Workload(ds.G, 170, 99)
		for _, q := range workload[:20] {
			runQuery(eng, q, 10, false)
		}
		var examined int
		var bound float64
		start := time.Now()
		for _, q := range workload[20:120] {
			res, _ := eng.TopK(q.Dir, q.E, q.R, 10)
			examined += res.Examined
			bound += res.RecallBound
		}
		avg := time.Since(start) / 100

		var prec float64
		for _, q := range workload[120:] {
			idx, _ := eng.TopK(q.Dir, q.E, q.R, 10)
			exact, _ := eng.TopKNoIndex(q.Dir, q.E, q.R, 10)
			want := map[int32]bool{}
			for _, pr := range exact.Predictions {
				want[pr.Entity] = true
			}
			hit := 0
			for _, pr := range idx.Predictions {
				if want[pr.Entity] {
					hit++
				}
			}
			if len(want) > 0 {
				prec += float64(hit) / float64(len(want))
			}
		}
		prec /= 50
		fmt.Fprintf(w, "%6.2f %12s %11.1f%% %12.4f %14.4f\n",
			eps, fmtDur(avg),
			100*float64(examined/100)/float64(ds.G.NumEntities()), prec, bound/100)
	}
	return nil
}
