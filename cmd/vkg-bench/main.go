// Command vkg-bench regenerates the paper's evaluation: every table and
// figure of Section VI has an experiment id (table1, fig3 ... fig16) whose
// driver prints the corresponding rows/series.
//
// Usage:
//
//	vkg-bench -list
//	vkg-bench -exp fig3                # one experiment at full scale
//	vkg-bench -exp all -scale tiny     # smoke-run everything
//	vkg-bench -batch -parallel 8       # serving throughput: serial vs DoBatch
//	vkg-bench -wal -dataset movie -scale tiny
//	                                   # warm restart via WAL replay vs cold rebuild
//	vkg-bench -serve-addr :8080 -dataset movie -scale tiny -parallel 16
//	                                   # closed-loop HTTP load against vkg-serve:
//	                                   # throughput, p50/p99 latency, shed rate
//
// Datasets and trained embeddings are cached under $VKG_CACHE (default:
// <tmp>/vkgraph-cache), so the first run pays TransE training once and
// subsequent runs start immediately.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vkgraph/internal/experiments"
	"vkgraph/vkg"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale    = flag.String("scale", "full", "dataset scale: tiny or full")
		list     = flag.Bool("list", false, "list available experiments")
		batch    = flag.Bool("batch", false, "serving-throughput mode: serial TopK loop vs DoBatch")
		dataset  = flag.String("dataset", "movie", "dataset for -batch: freebase, movie, or amazon")
		queries  = flag.Int("n", 2048, "number of queries for -batch")
		topk     = flag.Int("k", 10, "result size for -batch queries")
		parallel = flag.Int("parallel", 0, "worker-pool size for -batch, client count for -serve-addr (0 = GOMAXPROCS-derived)")

		walBench = flag.Bool("wal", false, "warm-restart mode: serve a workload with a WAL armed, then compare restart-via-replay against a cold rebuild")

		serveAddr = flag.String("serve-addr", "", "benchmark a running vkg-serve at this host:port instead of an in-process engine")
		tenant    = flag.String("tenant", "", "tenant name for -serve-addr (optional when the server has one tenant)")
		timeoutMS = flag.Int("timeout-ms", 0, "per-request timeout_ms for -serve-addr (0 = server default)")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	if *serveAddr != "" {
		sc, err := parseScale(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vkg-bench:", err)
			os.Exit(2)
		}
		if err := runServeClient(os.Stdout, *serveAddr, *tenant, *dataset, sc, *queries, *topk, *parallel, *timeoutMS); err != nil {
			fmt.Fprintf(os.Stderr, "vkg-bench: serve-addr: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *walBench {
		sc, err := parseScale(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vkg-bench:", err)
			os.Exit(2)
		}
		if err := runWALBench(os.Stdout, *dataset, *scale, sc, *queries, *topk, vkg.WALConfig{}); err != nil {
			fmt.Fprintf(os.Stderr, "vkg-bench: wal: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *batch {
		sc, err := parseScale(*scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vkg-bench:", err)
			os.Exit(2)
		}
		if err := runBatch(os.Stdout, *dataset, *scale, sc, *queries, *topk, *parallel); err != nil {
			fmt.Fprintf(os.Stderr, "vkg-bench: batch: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "vkg-bench: -exp is required (or -list, or -batch)")
		flag.Usage()
		os.Exit(2)
	}

	sc, err := parseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vkg-bench:", err)
		os.Exit(2)
	}

	run := func(e experiments.Experiment) {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		if err := e.Run(sc, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "vkg-bench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("--- %s done in %v ---\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, e := range experiments.All() {
			run(e)
		}
		return
	}
	e, ok := experiments.Find(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "vkg-bench: unknown experiment %q; try -list\n", *exp)
		os.Exit(2)
	}
	run(e)
}

func parseScale(s string) (experiments.Scale, error) {
	switch s {
	case "tiny":
		return experiments.Tiny, nil
	case "full":
		return experiments.Full, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want tiny or full)", s)
	}
}
