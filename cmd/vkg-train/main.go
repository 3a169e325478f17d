// Command vkg-train trains a TransE embedding (the prediction algorithm of
// the virtual knowledge graph) on a dataset produced by vkg-gen and saves
// the model. It starts from the hyperparameters vkg.Build trains with
// (embedding.DefaultConfig, seeded with vkg.DefaultSeed) and changes only
// what its flags set, so with no flags it writes the model vkg.Build
// trains on the same graph.
//
// Usage:
//
//	vkg-train -graph movie.graph -out movie.model -dim 50 -epochs 30
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg"
	"vkgraph/vkg"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is vkg-train with its command-line arguments; it returns the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	cfg := embedding.DefaultConfig()
	cfg.Seed = vkg.DefaultSeed
	fs := flag.NewFlagSet("vkg-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath = fs.String("graph", "", "input graph file (required)")
		out       = fs.String("out", "", "output model file (required)")
		l1        = fs.Bool("l1", false, "use L1 dissimilarity")
		verbose   = fs.Bool("v", false, "print per-epoch loss")
	)
	fs.IntVar(&cfg.Dim, "dim", cfg.Dim, "embedding dimensionality")
	fs.IntVar(&cfg.Epochs, "epochs", cfg.Epochs, "training epochs")
	fs.Float64Var(&cfg.LearningRate, "lr", cfg.LearningRate, "learning rate")
	fs.Float64Var(&cfg.Margin, "margin", cfg.Margin, "ranking margin")
	fs.Int64Var(&cfg.Seed, "seed", cfg.Seed, "RNG seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *graphPath == "" || *out == "" {
		fmt.Fprintln(stderr, "vkg-train: -graph and -out are required")
		fs.Usage()
		return 2
	}

	g, err := kg.LoadFile(*graphPath)
	if err != nil {
		fmt.Fprintf(stderr, "vkg-train: loading graph: %v\n", err)
		return 1
	}
	if *l1 {
		cfg.Norm = embedding.L1
	}

	start := time.Now()
	res, err := embedding.Train(g, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "vkg-train: %v\n", err)
		return 1
	}
	if *verbose {
		for i, l := range res.EpochLosses {
			fmt.Fprintf(stdout, "epoch %3d  loss %.6f\n", i+1, l)
		}
	}
	if err := res.Model.SaveFile(*out); err != nil {
		fmt.Fprintf(stderr, "vkg-train: saving model: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "trained %d-dim TransE on %d triples in %v; final loss %.6f; wrote %s\n",
		cfg.Dim, g.NumTriples(), time.Since(start).Round(time.Millisecond),
		res.EpochLosses[len(res.EpochLosses)-1], *out)
	return 0
}
