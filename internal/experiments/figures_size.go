package experiments

import (
	"time"

	"vkgraph/internal/core"
)

// SizeRow is one x-position of the index-growth figures (9-11): the state
// of the cracking index after a given number of initial queries, against
// the constant bulk-loaded index.
type SizeRow struct {
	AfterQueries int
	CrackNodes   int
	CrackSplits  int
	CrackBytes   int
	BulkNodes    int
	BulkSplits   int
	BulkBytes    int
}

// SizeFigureConfig parameterizes the index-growth experiment.
type SizeFigureConfig struct {
	K           int
	QueryCounts []int // x axis; must be ascending
	Seed        int64
}

func (c SizeFigureConfig) normalize() SizeFigureConfig {
	if c.K <= 0 {
		c.K = 10
	}
	if len(c.QueryCounts) == 0 {
		c.QueryCounts = []int{0, 1, 2, 5, 10, 20, 50}
	}
	if c.Seed == 0 {
		c.Seed = 777
	}
	return c
}

// SizeFigure measures node counts and index sizes of the cracking index as
// the query sequence progresses, versus the full bulk-loaded index
// (Figures 9, 10, 11). The paper's observation to reproduce: the cracking
// index converges within ~10 queries to a small fraction of the bulk size.
func SizeFigure(ds *Dataset, cfg SizeFigureConfig) ([]SizeRow, error) {
	cfg = cfg.normalize()
	p := core.DefaultParams()
	p.Attrs = []string{ds.AggAttr}

	crack, err := core.NewEngine(ds.G, ds.M, core.Crack, p)
	if err != nil {
		return nil, err
	}
	bulk, err := core.NewEngine(ds.G, ds.M, core.Bulk, p)
	if err != nil {
		return nil, err
	}
	bs := bulk.IndexStats()

	maxQ := cfg.QueryCounts[len(cfg.QueryCounts)-1]
	workload := Workload(ds.G, maxQ, cfg.Seed)

	var rows []SizeRow
	next := 0
	record := func(after int) {
		cs := crack.IndexStats()
		rows = append(rows, SizeRow{
			AfterQueries: after,
			CrackNodes:   cs.TotalNodes,
			CrackSplits:  cs.BinarySplits,
			CrackBytes:   cs.SizeBytes,
			BulkNodes:    bs.TotalNodes,
			BulkSplits:   bs.BinarySplits,
			BulkBytes:    bs.SizeBytes,
		})
	}
	for qi := 0; qi <= maxQ; qi++ {
		for next < len(cfg.QueryCounts) && cfg.QueryCounts[next] == qi {
			record(qi)
			next++
		}
		if qi == maxQ {
			break
		}
		q := workload[qi]
		if _, err := crack.TopK(q.Dir, q.E, q.R, cfg.K); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// AggRow is one x-position of the aggregate figures (12-16): the sample
// size a, the mean per-query time, and the mean accuracy
// 1 - |v_returned - v_true| / v_true against the exhaustive ground truth.
type AggRow struct {
	MaxAccess int
	MeanTime  time.Duration
	Accuracy  float64
	Queries   int
}

// AggFigureConfig parameterizes an aggregate experiment.
type AggFigureConfig struct {
	Kind     core.AggKind
	Attr     string // empty = the dataset's default aggregate attribute
	Accesses []int  // the a values swept on the x axis
	Queries  int
	Seed     int64
	PTau     float64 // ball probability threshold (paper: 0.01)
	Warm     int     // cracking warm-up queries before measurement
}

func (c AggFigureConfig) normalize(ds *Dataset) AggFigureConfig {
	if c.Attr == "" {
		c.Attr = ds.AggAttr
	}
	if len(c.Accesses) == 0 {
		c.Accesses = []int{2, 5, 10, 20, 50, 100, 200}
	}
	if c.Queries <= 0 {
		c.Queries = 30
	}
	if c.Seed == 0 {
		c.Seed = 555
	}
	if c.PTau <= 0 {
		c.PTau = 0.01
	}
	return c
}

// AggFigure sweeps the sample size a and reports the time/accuracy tradeoff
// of the approximate aggregate estimators (Figures 12-16). Ground truth is
// the exhaustive S1 evaluation at the same probability threshold, per the
// paper's accuracy metric.
func AggFigure(ds *Dataset, cfg AggFigureConfig) ([]AggRow, error) {
	cfg = cfg.normalize(ds)
	p := core.DefaultParams()
	p.Attrs = []string{cfg.Attr}
	eng, err := core.NewEngine(ds.G, ds.M, core.Crack, p)
	if err != nil {
		return nil, err
	}

	workload := Workload(ds.G, cfg.Warm+cfg.Queries, cfg.Seed)
	for i := 0; i < cfg.Warm; i++ {
		q := workload[i]
		_, _ = eng.TopK(q.Dir, q.E, q.R, 10)
	}
	measured := workload[cfg.Warm:]

	// Ground truth per query.
	truth := make([]float64, len(measured))
	for i, q := range measured {
		spec := core.AggQuery{Kind: cfg.Kind, Attr: cfg.Attr, PTau: cfg.PTau}
		if cfg.Kind == core.Count {
			spec.Attr = ""
		}
		res, err := eng.AggregateExact(q.Dir, q.E, q.R, spec)
		if err != nil {
			return nil, err
		}
		truth[i] = res.Value
	}

	rows := make([]AggRow, 0, len(cfg.Accesses))
	for _, a := range cfg.Accesses {
		var accSum float64
		var used int
		start := time.Now()
		for i, q := range measured {
			spec := core.AggQuery{Kind: cfg.Kind, Attr: cfg.Attr, PTau: cfg.PTau, MaxAccess: a}
			if cfg.Kind == core.Count {
				spec.Attr = ""
			}
			res, err := eng.Aggregate(q.Dir, q.E, q.R, spec)
			if err != nil {
				return nil, err
			}
			if truth[i] == 0 {
				continue
			}
			acc := 1 - abs(res.Value-truth[i])/abs(truth[i])
			if acc < 0 {
				acc = 0
			}
			accSum += acc
			used++
		}
		elapsed := time.Since(start)
		row := AggRow{MaxAccess: a, MeanTime: elapsed / time.Duration(len(measured)), Queries: used}
		if used > 0 {
			row.Accuracy = accSum / float64(used)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
