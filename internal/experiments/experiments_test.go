package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vkgraph/internal/core"
	"vkgraph/internal/kg/kggen"
)

// The experiment drivers are exercised at Tiny scale: the point is to prove
// every figure driver runs end to end and that the qualitative shapes the
// paper reports hold even on small instances.

func TestTable1(t *testing.T) {
	rows, err := Table1(Tiny)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Entities <= 0 || r.Edges <= 0 || r.RelationTypes <= 0 {
			t.Fatalf("degenerate dataset row: %+v", r)
		}
	}
	// Amazon must be the larger CF dataset, as in the paper.
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Dataset] = r
	}
	if byName["amazon"].Entities <= byName["movie"].Entities {
		t.Fatalf("amazon (%d entities) not larger than movie (%d)",
			byName["amazon"].Entities, byName["movie"].Entities)
	}
}

func TestWorkloadDeterministic(t *testing.T) {
	ds, err := LoadDataset("movie", Tiny)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	a := Workload(ds.G, 50, 9)
	b := Workload(ds.G, 50, 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("workload not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	rel, _ := ds.G.RelationByName("likes")
	for _, q := range RelationWorkload(ds.G, rel, 20, 9) {
		if q.R != rel || q.Dir != core.DirTail {
			t.Fatalf("relation workload produced %+v", q)
		}
	}
}

func TestTimeFigureShapes(t *testing.T) {
	ds, err := LoadDataset("movie", Tiny)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	rows, err := TimeFigure(ds, []MethodSpec{
		{Method: "noindex"}, {Method: "bulk"}, {Method: "crack"},
	}, TimeFigureConfig{AvgQueries: 50})
	if err != nil {
		t.Fatalf("TimeFigure: %v", err)
	}
	byLabel := map[string]TimeRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	crack, bulk := byLabel["crack"], byLabel["bulk"]
	if bulk.Build <= 0 {
		t.Fatalf("bulk build time not measured")
	}
	if crack.AvgQueries != 50 {
		t.Fatalf("AvgQueries = %d, want 50", crack.AvgQueries)
	}

	// The figure's two orderings are asserted on the engine's work counters,
	// not on its ~1 ms wall-clock samples, which flip with GOMAXPROCS and
	// machine load. Cracking has no offline build; bulk has a real one.
	crackEng, err := core.NewEngine(ds.G, ds.M, core.Crack, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	bulkEng, err := core.NewEngine(ds.G, ds.M, core.Bulk, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if s := crackEng.IndexStats(); s.BinarySplits != 0 {
		t.Fatalf("cracking index split %d times before any query", s.BinarySplits)
	}
	if s := bulkEng.IndexStats(); s.BinarySplits == 0 {
		t.Fatalf("bulk build performed no splits: %+v", s)
	}
	// Cracking's first query is its most expensive: it meets the unsplit
	// (pending) root and pays more splits than a steady-state query does on
	// average.
	workload := Workload(ds.G, 1+crack.AvgQueries, 1)
	topK := engineTopK(crackEng)
	topK(workload[0], 10)
	first := crackEng.Metrics()
	for _, q := range workload[1:] {
		topK(q, 10)
	}
	steady := float64(crackEng.Metrics().CrackSplits-first.CrackSplits) / float64(crack.AvgQueries)
	if first.NodeAccessPending == 0 || float64(first.CrackSplits) <= steady {
		t.Fatalf("first query: %d pending-node accesses, %d splits; steady state %.2f splits per query",
			first.NodeAccessPending, first.CrackSplits, steady)
	}
}

func TestAccuracyFigure(t *testing.T) {
	ds, err := LoadDataset("movie", Tiny)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	rel, _ := ds.G.RelationByName("likes")
	rows, err := AccuracyFigure(ds, []MethodSpec{
		{Method: "crack"}, {Method: "bulk"}, {Method: "h2alsh"},
	}, AccuracyFigureConfig{Queries: 25, Rel: rel, SingleRel: true})
	if err != nil {
		t.Fatalf("AccuracyFigure: %v", err)
	}
	for _, r := range rows {
		if r.Precision < 0 || r.Precision > 1 {
			t.Fatalf("%s precision %v outside [0,1]", r.Label, r.Precision)
		}
		if (r.Label == "crack" || r.Label == "bulk") && r.Precision < 0.85 {
			t.Fatalf("%s precision %v below the paper's reported band", r.Label, r.Precision)
		}
	}
}

func TestSizeFigureShapes(t *testing.T) {
	ds, err := LoadDataset("movie", Tiny)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	rows, err := SizeFigure(ds, SizeFigureConfig{QueryCounts: []int{0, 1, 5, 10, 20}})
	if err != nil {
		t.Fatalf("SizeFigure: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	if first.AfterQueries != 0 || first.CrackNodes != 0 || first.CrackBytes != 0 {
		t.Fatalf("before any query the cracking index must be unbuilt: %+v", first)
	}
	// The paper's headline — cracking performs a small fraction of the bulk
	// loader's splits — appears at full scale (Figs. 9-11: ~60% of the
	// splits after 50 queries, converging). At this tiny test scale every
	// query ball covers much of the space, so the comparison can only be
	// loose: cracking must stay within a small constant of bulk.
	if last.CrackSplits > 2*last.BulkSplits {
		t.Fatalf("cracking splits %d far exceed bulk splits %d", last.CrackSplits, last.BulkSplits)
	}
	if last.CrackNodes > 2*last.BulkNodes {
		t.Fatalf("cracking nodes %d far exceed bulk nodes %d", last.CrackNodes, last.BulkNodes)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].CrackNodes < rows[i-1].CrackNodes {
			t.Fatalf("crack node count decreased: %+v -> %+v", rows[i-1], rows[i])
		}
		if rows[i].BulkNodes != rows[0].BulkNodes {
			t.Fatalf("bulk node count changed between rows")
		}
	}
}

func TestAggFigureShapes(t *testing.T) {
	ds, err := LoadDataset("movie", Tiny)
	if err != nil {
		t.Fatalf("LoadDataset: %v", err)
	}
	rows, err := AggFigure(ds, AggFigureConfig{
		Kind: core.Avg, Queries: 10, Accesses: []int{2, 10, 50, 0x7fffffff},
	})
	if err != nil {
		t.Fatalf("AggFigure: %v", err)
	}
	for _, r := range rows {
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Fatalf("accuracy %v outside [0,1] at a=%d", r.Accuracy, r.MaxAccess)
		}
		if r.MeanTime <= 0 {
			t.Fatalf("non-positive mean time at a=%d", r.MaxAccess)
		}
	}
	// Accuracy with a huge sample should beat (or match) the tiny sample:
	// the paper's tradeoff curve flattens high.
	if rows[len(rows)-1].Accuracy+0.02 < rows[0].Accuracy {
		t.Fatalf("accuracy did not improve with sample size: %v -> %v",
			rows[0].Accuracy, rows[len(rows)-1].Accuracy)
	}
	if rows[len(rows)-1].Accuracy < 0.9 {
		t.Fatalf("full-access accuracy %v below 0.9", rows[len(rows)-1].Accuracy)
	}
}

func TestRegistryRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep is not short")
	}
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			var buf bytes.Buffer
			start := time.Now()
			if err := exp.Run(Tiny, &buf); err != nil {
				t.Fatalf("%s: %v", exp.ID, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", exp.ID)
			}
			if strings.Count(buf.String(), "\n") < 2 {
				t.Fatalf("%s produced fewer than 2 lines:\n%s", exp.ID, buf.String())
			}
			t.Logf("%s ok in %v", exp.ID, time.Since(start))
		})
	}
}

func TestFindAndIDs(t *testing.T) {
	all := All()
	if len(all) != 18 {
		t.Fatalf("got %d experiments, want 18 (Table I + Figs 3-16 + 3 ablations)", len(all))
	}
	for _, e := range all {
		if _, ok := Find(e.ID); !ok {
			t.Fatalf("Find(%q) failed", e.ID)
		}
	}
	if _, ok := Find("fig99"); ok {
		t.Fatal("Find accepted unknown id")
	}
}

func TestParseScale(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Scale
		ok   bool
	}{
		{"tiny", Tiny, true},
		{"full", Full, true},
		{"huge", 0, false},
	} {
		got, err := ParseScale(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Fatalf("ParseScale(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

// TestDiskKeyFollowsConfigs: the disk cache is keyed by the configs that
// made a dataset, so a changed generator or training config misses it.
func TestDiskKeyFollowsConfigs(t *testing.T) {
	gen, train := kggen.TinyMovieConfig(), trainConfig(Tiny)
	key := diskKey("movie", Tiny, gen, train)
	if again := diskKey("movie", Tiny, kggen.TinyMovieConfig(), trainConfig(Tiny)); again != key {
		t.Fatalf("equal configs give keys %q and %q", key, again)
	}
	moreRatings, moreEpochs := gen, train
	moreRatings.Ratings++
	moreEpochs.Epochs++
	for _, k := range []string{diskKey("movie", Tiny, moreRatings, train), diskKey("movie", Tiny, gen, moreEpochs)} {
		if k == key {
			t.Fatalf("a changed config keeps the key %q", key)
		}
	}

	// A load that misses the in-process memo writes its files under the key.
	dir := t.TempDir()
	t.Setenv("VKG_CACHE", dir)
	cacheMu.Lock()
	delete(cache, fmt.Sprintf("%s-%d", "movie", Tiny))
	cacheMu.Unlock()
	if _, err := LoadDataset("movie", Tiny); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".graph", ".model"} {
		if _, err := os.Stat(filepath.Join(dir, key+ext)); err != nil {
			t.Fatalf("no cache file under the config key: %v", err)
		}
	}
}

func TestMethodSpecLabels(t *testing.T) {
	cases := []struct {
		spec MethodSpec
		want string
	}{
		{MethodSpec{Method: "crack"}, "crack"},
		{MethodSpec{Method: "crack", Alpha: 6}, "crack(a=6)"},
		{MethodSpec{Method: "h2alsh", K: 2}, "h2alsh:2"},
		{MethodSpec{Method: "bulk", Label: "custom"}, "custom"},
	}
	for _, c := range cases {
		if got := c.spec.label(); got != c.want {
			t.Fatalf("label(%+v) = %q, want %q", c.spec, got, c.want)
		}
	}
}
