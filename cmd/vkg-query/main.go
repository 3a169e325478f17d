// Command vkg-query answers predictive queries interactively over a graph +
// model pair produced by vkg-gen and vkg-train, using the cracking index.
//
// One-shot:
//
//	vkg-query -graph movie.graph -model movie.model -entity user17 -rel likes -k 5
//	vkg-query -graph movie.graph -model movie.model -entity movie3 -rel likes -heads -k 5
//	vkg-query -graph movie.graph -model movie.model -entity user17 -rel likes -agg avg -attr year
//
// Add -trace to print the per-stage timing breakdown of the answer, -bench n
// to repeat the query n times and print a one-line metrics summary, and
// -metrics-addr to serve vkg-serve's ops page (/metrics, /traces,
// /debug/pprof/, /readyz, and /v1/query) while the process runs, with this
// engine as its one tenant, "default".
//
// REPL (reads "tails|heads|agg <entity> <relation> [k|kind attr]" lines):
//
//	vkg-query -graph movie.graph -model movie.model -repl
//
// Snapshots: "save <path>" in the REPL writes the whole engine — including
// the query-warmed index shape — to a crash-safe snapshot; -snapshot loads
// one instead of -graph/-model. If the snapshot's index section is damaged,
// the engine still comes up (graph and model are checksummed separately) and
// a warning reports that the index was rebuilt cold.
//
//	vkg-query -snapshot movie.vkg -repl
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg"
	"vkgraph/internal/serve"
	"vkgraph/vkg"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", "graph file (required unless -snapshot)")
		modelPath   = flag.String("model", "", "model file (required unless -snapshot)")
		snapshot    = flag.String("snapshot", "", "engine snapshot file (replaces -graph/-model)")
		entity      = flag.String("entity", "", "query entity name")
		rel         = flag.String("rel", "", "relationship name")
		k           = flag.Int("k", 5, "top-k")
		heads       = flag.Bool("heads", false, "query heads (?, r, t) instead of tails (h, r, ?)")
		agg         = flag.String("agg", "", "aggregate kind: count, sum, avg, max, min")
		attr        = flag.String("attr", "", "attribute for sum/avg/max/min")
		repl        = flag.Bool("repl", false, "interactive mode")
		alpha       = flag.Int("alpha", 3, "index dimensionality")
		trace       = flag.Bool("trace", false, "print the per-stage timing breakdown of each answer")
		bench       = flag.Int("bench", 0, "repeat the one-shot query this many times and print a metrics summary")
		metricsAddr = flag.String("metrics-addr", "", "serve the ops page (Prometheus /metrics, /traces, pprof) on this address")
		wal         = flag.Bool("wal", false, "with -snapshot: replay and keep appending the snapshot's write-ahead log, so crack work survives restarts")
	)
	flag.Parse()

	if *wal && *snapshot == "" {
		fatal("-wal requires -snapshot (the log is keyed to a snapshot file)")
	}

	var v *vkg.VKG
	if *snapshot != "" {
		var err error
		if *wal {
			v, err = vkg.LoadFileWAL(*snapshot, vkg.WALConfig{})
		} else {
			v, err = vkg.LoadFile(*snapshot)
		}
		if err != nil {
			fatal("loading snapshot: %v", err)
		}
		if *wal {
			ws := v.WALStats()
			fmt.Fprintf(os.Stderr, "vkg-query: WAL %s gen %d: replayed %d records in %v\n",
				ws.Path, ws.Generation, ws.ReplayedRecords, ws.ReplayDuration)
			defer v.CloseWAL()
		}
		if v.IndexRebuilt() {
			fmt.Fprintln(os.Stderr,
				"vkg-query: warning: snapshot index section was damaged; "+
					"graph and model loaded intact, index rebuilt cold and will re-warm with queries")
		}
	} else {
		if *graphPath == "" || *modelPath == "" {
			fmt.Fprintln(os.Stderr, "vkg-query: -graph and -model (or -snapshot) are required")
			flag.Usage()
			os.Exit(2)
		}
		g, err := kg.LoadFile(*graphPath)
		if err != nil {
			fatal("loading graph: %v", err)
		}
		m, err := embedding.LoadFile(*modelPath)
		if err != nil {
			fatal("loading model: %v", err)
		}
		gr := vkg.WrapGraph(g)
		v, err = vkg.Build(gr,
			vkg.WithPretrainedModel(m),
			vkg.WithAlpha(*alpha),
			vkg.WithAttributes(gr.AttrNames()...))
		if err != nil {
			fatal("building engine: %v", err)
		}
	}

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal("serving ops: %v", err)
		}
		ops := serve.NewServer(serve.Config{})
		if err := ops.AddTenant("default", serve.NewTenant(v, "")); err != nil {
			fatal("serving ops: %v", err)
		}
		go func() {
			if err := ops.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "vkg-query: ops: %v\n", err)
			}
		}()
		defer ops.Drain(context.Background())
		fmt.Fprintf(os.Stderr, "vkg-query: ops listening on http://%s\n", ln.Addr())
	}

	if *repl {
		runREPL(v, *trace)
		return
	}
	if *entity == "" || *rel == "" {
		fatal("-entity and -rel are required (or -repl)")
	}
	side := "tails"
	if *heads {
		side = "heads"
	}
	if *agg != "" {
		if err := runAgg(v, side, *entity, *rel, *agg, *attr, *trace); err != nil {
			fatal("%v", err)
		}
	} else if err := runTopK(v, side, *entity, *rel, *k, *trace); err != nil {
		fatal("%v", err)
	}
	if *bench > 0 {
		if err := runBench(v, side, *entity, *rel, *agg, *attr, *k, *bench); err != nil {
			fatal("%v", err)
		}
	}
}

func resolve(g *vkg.Graph, entity, rel string) (vkg.EntityID, vkg.RelationID, error) {
	e, ok := g.EntityByName(entity)
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", vkg.ErrUnknownEntity, entity)
	}
	r, ok := g.RelationByName(rel)
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", vkg.ErrUnknownRelation, rel)
	}
	return e, r, nil
}

func printTrace(res *vkg.Result) {
	if res.Trace == nil {
		return
	}
	fmt.Printf("trace: %s\n", res.Trace)
	id := res.Trace.TraceID()
	fmt.Printf("trace id: %s  (/traces/%s on the ops endpoint)\n", id, id)
}

func runTopK(v *vkg.VKG, side, entity, rel string, k int, trace bool) error {
	e, r, err := resolve(v.Graph(), entity, rel)
	if err != nil {
		return err
	}
	dir := vkg.Tails
	if side == "heads" {
		dir = vkg.Heads
	}
	start := time.Now()
	res, err := v.Do(context.Background(),
		vkg.Query{Kind: vkg.TopK, Dir: dir, Entity: e, Relation: r, K: k, Trace: trace})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("top-%d %s for (%s, %s) in %v (examined %d, recall bound %.4f):\n",
		k, side, entity, rel, elapsed, res.TopK.Examined, res.TopK.RecallBound)
	for i, p := range res.TopK.Predictions {
		fmt.Printf("%3d. %-24s prob=%.4f dist=%.4f\n", i+1, p.Name, p.Prob, p.Dist)
	}
	if trace {
		printTrace(res)
	}
	return nil
}

func parseAggKind(kind string) (vkg.AggKind, error) {
	switch strings.ToLower(kind) {
	case "count":
		return vkg.Count, nil
	case "sum":
		return vkg.Sum, nil
	case "avg":
		return vkg.Avg, nil
	case "max":
		return vkg.Max, nil
	case "min":
		return vkg.Min, nil
	default:
		return 0, fmt.Errorf("unknown aggregate %q", kind)
	}
}

func runAgg(v *vkg.VKG, side, entity, rel, kind, attr string, trace bool) error {
	e, r, err := resolve(v.Graph(), entity, rel)
	if err != nil {
		return err
	}
	ak, err := parseAggKind(kind)
	if err != nil {
		return err
	}
	dir := vkg.Tails
	if side == "heads" {
		dir = vkg.Heads
	}
	start := time.Now()
	res, err := v.Do(context.Background(), vkg.Query{
		Kind: vkg.Aggregate, Dir: dir, Entity: e, Relation: r,
		Agg: vkg.AggSpec{Kind: ak, Attr: attr}, Trace: trace,
	})
	if err != nil {
		return err
	}
	a := res.Agg
	fmt.Printf("%s(%s) over predicted %s of (%s, %s) = %.4f  [a=%d of b=%d, 95%% radius ±%.1f%%] in %v\n",
		strings.ToUpper(kind), attr, side, entity, rel, a.Value,
		a.Accessed, a.BallSize, 100*a.ConfidenceRadius(0.95), time.Since(start))
	if trace {
		printTrace(res)
	}
	return nil
}

// runBench repeats the one-shot query n times through the request API (so
// repeats hit the result cache like a serving workload would) and prints a
// one-line summary of the engine metrics.
func runBench(v *vkg.VKG, side, entity, rel, agg, attr string, k, n int) error {
	e, r, err := resolve(v.Graph(), entity, rel)
	if err != nil {
		return err
	}
	q := vkg.Query{Entity: e, Relation: r, K: k}
	if side == "heads" {
		q.Dir = vkg.Heads
	}
	if agg != "" {
		ak, err := parseAggKind(agg)
		if err != nil {
			return err
		}
		q.Kind = vkg.Aggregate
		q.Agg = vkg.AggSpec{Kind: ak, Attr: attr}
	}
	qs := make([]vkg.Query, n)
	for i := range qs {
		qs[i] = q
	}
	start := time.Now()
	for i, res := range v.DoBatch(context.Background(), qs) {
		if res.Err != nil {
			return fmt.Errorf("bench query %d: %w", i, res.Err)
		}
	}
	elapsed := time.Since(start)
	m := v.Metrics()
	lat := m.TopKLatency
	if q.Kind == vkg.Aggregate {
		lat = m.AggregateLatency
	}
	fmt.Printf("bench: %d queries in %v (%.0f queries/s)\n", n, elapsed.Round(time.Microsecond),
		float64(n)/elapsed.Seconds())
	fmt.Printf("metrics: cache hit rate %.1f%%, %d splits, p95 %v, node accesses %d\n",
		100*m.CacheHitRate(), m.CrackSplits, lat.P95.Round(time.Microsecond),
		m.NodeAccessInternal+m.NodeAccessLeaf+m.NodeAccessPending)
	return nil
}

func runREPL(v *vkg.VKG, trace bool) {
	fmt.Println("commands:")
	fmt.Println("  tails <entity> <relation> [k]")
	fmt.Println("  heads <entity> <relation> [k]")
	fmt.Println("  agg <entity> <relation> <count|sum|avg|max|min> [attr]")
	fmt.Println("  save <path> | stats | metrics | quit")
	sc := bufio.NewScanner(os.Stdin)
	for fmt.Print("> "); sc.Scan(); fmt.Print("> ") {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit":
			return
		case "save":
			if len(fields) != 2 {
				fmt.Println("usage: save <path>")
				continue
			}
			if err := v.SaveFile(fields[1]); err != nil {
				fmt.Printf("error: %v\n", err)
				continue
			}
			fmt.Printf("snapshot written to %s\n", fields[1])
		case "stats":
			s := v.IndexStats()
			fmt.Printf("index: %d nodes (%d internal, %d leaves, %d pending), %d splits, %d bytes, height %d\n",
				s.TotalNodes, s.InternalNodes, s.LeafNodes, s.PendingNodes,
				s.BinarySplits, s.SizeBytes, s.Height)
		case "metrics":
			m := v.Metrics()
			fmt.Printf("queries: %d topk (%d errors), %d aggregate; cache %d/%d hits (%.1f%%), %d coalesced\n",
				m.TopKQueries, m.QueryErrors, m.AggregateQueries,
				m.Cache.Hits, m.Cache.Hits+m.Cache.Misses, 100*m.CacheHitRate(), m.Coalesced)
			fmt.Printf("index: %d splits, %d nodes created, accesses %d internal / %d leaf / %d pending\n",
				m.CrackSplits, m.CrackNodesCreated,
				m.NodeAccessInternal, m.NodeAccessLeaf, m.NodeAccessPending)
			fmt.Printf("latency: topk p50 %v p95 %v p99 %v\n",
				m.TopKLatency.P50.Round(time.Microsecond),
				m.TopKLatency.P95.Round(time.Microsecond),
				m.TopKLatency.P99.Round(time.Microsecond))
		case "tails", "heads":
			if len(fields) < 3 {
				fmt.Println("usage: tails|heads <entity> <relation> [k]")
				continue
			}
			k := 5
			if len(fields) > 3 {
				if n, err := strconv.Atoi(fields[3]); err == nil {
					k = n
				}
			}
			if err := runTopK(v, fields[0], fields[1], fields[2], k, trace); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		case "agg":
			if len(fields) < 4 {
				fmt.Println("usage: agg <entity> <relation> <kind> [attr]")
				continue
			}
			attr := ""
			if len(fields) > 4 {
				attr = fields[4]
			}
			if err := runAgg(v, "tails", fields[1], fields[2], fields[3], attr, trace); err != nil {
				fmt.Printf("error: %v\n", err)
			}
		default:
			fmt.Printf("unknown command %q\n", fields[0])
		}
	}
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "vkg-query: "+format+"\n", args...)
	os.Exit(1)
}
