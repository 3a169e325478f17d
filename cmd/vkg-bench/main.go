// Command vkg-bench regenerates the paper's evaluation: every table and
// figure of Section VI has an experiment id (table1, fig3 ... fig16) whose
// driver prints the corresponding rows/series. The system's own performance
// is measured by the bench module (bash bench/run.sh), not here.
//
// Usage:
//
//	vkg-bench -list
//	vkg-bench -exp fig3                # one experiment at full scale
//	vkg-bench -exp all -scale tiny     # smoke-run everything
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
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale = flag.String("scale", "full", "dataset scale: tiny or full")
		list  = flag.Bool("list", false, "list available experiments")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "vkg-bench: -exp is required (or -list)")
		flag.Usage()
		os.Exit(2)
	}

	sc, err := experiments.ParseScale(*scale)
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
