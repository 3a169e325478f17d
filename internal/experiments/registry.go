package experiments

import (
	"fmt"
	"io"
	"time"

	"vkgraph/internal/core"
)

// This file is the per-experiment index of DESIGN.md §4 turned into code:
// each paper table/figure id maps to a driver with the paper's parameters,
// runnable from cmd/vkg-bench (-exp <id>).

// standardMethods are the Freebase figure's method set (Fig. 3/4).
func standardMethods() []MethodSpec {
	return []MethodSpec{
		{Method: "noindex"},
		{Method: "phtree"},
		{Method: "bulk"},
		{Method: "crack"},
	}
}

// movieMethods adds the alpha sweep and H2-ALSH (Fig. 5/6).
func movieMethods() []MethodSpec {
	return []MethodSpec{
		{Method: "noindex"},
		{Method: "bulk", Alpha: 3},
		{Method: "bulk", Alpha: 6},
		{Method: "crack", Alpha: 3},
		{Method: "crack", Alpha: 6},
		{Method: "h2alsh"},
	}
}

// amazonMethods adds the H2-ALSH k sweep (Fig. 7/8).
func amazonMethods() []MethodSpec {
	return []MethodSpec{
		{Method: "noindex"},
		{Method: "bulk"},
		{Method: "crack"},
		{Method: "h2alsh", K: 2, Label: "h2alsh:2"},
		{Method: "h2alsh", K: 10, Label: "h2alsh:10"},
	}
}

// likesRelation returns the "likes" relation id of a CF dataset.
func likesRelation(ds *Dataset) (int32, error) {
	rel, ok := ds.G.RelationByName("likes")
	if !ok {
		return 0, fmt.Errorf("experiments: dataset %s has no likes relation", ds.Name)
	}
	return rel, nil
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(scale Scale, w io.Writer) error
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table I: dataset statistics", runTable1},
		{"fig3", "Fig 3: method vs elapsed time (Freebase)", timeExp("freebase", standardMethods, false)},
		{"fig4", "Fig 4: accuracy precision@K (Freebase)", accExp("freebase", standardMethods, false)},
		{"fig5", "Fig 5: method vs elapsed time (Movie, alpha 3 vs 6, H2-ALSH)", timeExp("movie", movieMethods, true)},
		{"fig6", "Fig 6: accuracy precision@K (Movie)", accExp("movie", movieMethods, true)},
		{"fig7", "Fig 7: method vs elapsed time (Amazon, H2-ALSH k=2 vs 10)", timeExp("amazon", amazonMethods, true)},
		{"fig8", "Fig 8: accuracy precision@K (Amazon)", accExp("amazon", amazonMethods, true)},
		{"fig9", "Fig 9: #index nodes vs #queries (Freebase)", sizeExp("freebase")},
		{"fig10", "Fig 10: index size vs #queries (Movie)", sizeExp("movie")},
		{"fig11", "Fig 11: index size vs #queries (Amazon)", sizeExp("amazon")},
		{"fig12", "Fig 12: COUNT queries time/accuracy (Freebase)", aggExp("freebase", core.Count)},
		{"fig13", "Fig 13: AVG(year) queries time/accuracy (Movie)", aggExp("movie", core.Avg)},
		{"fig14", "Fig 14: AVG(quality) queries time/accuracy (Amazon)", aggExp("amazon", core.Avg)},
		{"fig15", "Fig 15: MAX(popularity) queries time/accuracy (Freebase)", aggExp("freebase", core.Max)},
		{"fig16", "Fig 16: MIN(year) queries time/accuracy (Movie)", aggExp("movie", core.Min)},
		{"scale", "Ablation: crack vs no-index speedup over graph size", AblationScale},
		{"alpha", "Ablation: S2 dimensionality alpha (cost vs precision)", AblationAlpha},
		{"eps", "Ablation: query-expansion epsilon (cost vs recall)", AblationEps},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func runTable1(scale Scale, w io.Writer) error {
	rows, err := Table1(scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %10s %10s %10s %10s %12s\n",
		"Dataset", "Entities", "RelTypes", "Edges", "MaxDeg", "MeanDeg")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %10d %10d %10d %10d %12.2f\n",
			r.Dataset, r.Entities, r.RelationTypes, r.Edges, r.MaxDegree, r.MeanDegree)
	}
	return nil
}

func avgQueriesFor(scale Scale) int {
	if scale == Tiny {
		return 100
	}
	return 1000
}

func timeExp(dataset string, methods func() []MethodSpec, singleRel bool) func(Scale, io.Writer) error {
	return func(scale Scale, w io.Writer) error {
		ds, err := LoadDataset(dataset, scale)
		if err != nil {
			return err
		}
		cfg := TimeFigureConfig{AvgQueries: avgQueriesFor(scale)}
		if singleRel {
			rel, err := likesRelation(ds)
			if err != nil {
				return err
			}
			cfg.Rel = rel
			cfg.SingleRel = true
		}
		rows, err := TimeFigure(ds, methods(), cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %12s %12s %12s %12s %12s %12s\n",
			"Method", "Build", "Query1", "Query6", "Query11", "Query16", "Avg")
		for _, r := range rows {
			fmt.Fprintf(w, "%-14s %12s %12s %12s %12s %12s %12s\n",
				r.Label, fmtDur(r.Build), fmtDur(r.Q1), fmtDur(r.Q6),
				fmtDur(r.Q11), fmtDur(r.Q16), fmtDur(r.Avg))
		}
		return nil
	}
}

func accExp(dataset string, methods func() []MethodSpec, singleRel bool) func(Scale, io.Writer) error {
	return func(scale Scale, w io.Writer) error {
		ds, err := LoadDataset(dataset, scale)
		if err != nil {
			return err
		}
		specs := methods()
		// The no-index row is the ground truth itself; drop it from the
		// accuracy figure as the paper does.
		filtered := specs[:0]
		for _, s := range specs {
			if s.Method != "noindex" {
				filtered = append(filtered, s)
			}
		}
		cfg := AccuracyFigureConfig{Queries: 60, Warm: 10}
		if singleRel {
			rel, err := likesRelation(ds)
			if err != nil {
				return err
			}
			cfg.Rel = rel
			cfg.SingleRel = true
		}
		rows, err := AccuracyFigure(ds, filtered, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-14s %14s\n", "Method", "precision@K")
		for _, r := range rows {
			fmt.Fprintf(w, "%-14s %14.4f\n", r.Label, r.Precision)
		}
		return nil
	}
}

func sizeExp(dataset string) func(Scale, io.Writer) error {
	return func(scale Scale, w io.Writer) error {
		ds, err := LoadDataset(dataset, scale)
		if err != nil {
			return err
		}
		rows, err := SizeFigure(ds, SizeFigureConfig{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%8s %12s %12s %14s %12s %12s %14s\n",
			"#queries", "crackNodes", "crackSplits", "crackBytes", "bulkNodes", "bulkSplits", "bulkBytes")
		for _, r := range rows {
			fmt.Fprintf(w, "%8d %12d %12d %14d %12d %12d %14d\n",
				r.AfterQueries, r.CrackNodes, r.CrackSplits, r.CrackBytes,
				r.BulkNodes, r.BulkSplits, r.BulkBytes)
		}
		return nil
	}
}

func aggExp(dataset string, kind core.AggKind) func(Scale, io.Writer) error {
	return func(scale Scale, w io.Writer) error {
		ds, err := LoadDataset(dataset, scale)
		if err != nil {
			return err
		}
		cfg := AggFigureConfig{Kind: kind, Queries: 25, Warm: 5}
		if scale == Tiny {
			cfg.Queries = 10
			cfg.Accesses = []int{2, 5, 10, 20}
		}
		rows, err := AggFigure(ds, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s over attribute %q, p_tau=0.01\n", kind, ds.AggAttr)
		fmt.Fprintf(w, "%10s %14s %12s\n", "a(access)", "meanTime", "accuracy")
		for _, r := range rows {
			fmt.Fprintf(w, "%10d %14s %12.4f\n", r.MaxAccess, fmtDur(r.MeanTime), r.Accuracy)
		}
		return nil
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
