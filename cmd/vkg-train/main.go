// Command vkg-train trains a TransE embedding (the prediction algorithm of
// the virtual knowledge graph) on a dataset produced by vkg-gen and saves
// the model. It starts from the hyperparameters vkg.Build trains with
// (embedding.DefaultConfig) and changes only what its flags set.
//
// Usage:
//
//	vkg-train -graph movie.graph -out movie.model -dim 50 -epochs 30
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg"
)

func main() {
	cfg := embedding.DefaultConfig()
	var (
		graphPath = flag.String("graph", "", "input graph file (required)")
		out       = flag.String("out", "", "output model file (required)")
		l1        = flag.Bool("l1", false, "use L1 dissimilarity")
		verbose   = flag.Bool("v", false, "print per-epoch loss")
	)
	flag.IntVar(&cfg.Dim, "dim", cfg.Dim, "embedding dimensionality")
	flag.IntVar(&cfg.Epochs, "epochs", cfg.Epochs, "training epochs")
	flag.Float64Var(&cfg.LearningRate, "lr", cfg.LearningRate, "learning rate")
	flag.Float64Var(&cfg.Margin, "margin", cfg.Margin, "ranking margin")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "RNG seed")
	flag.Parse()
	if *graphPath == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "vkg-train: -graph and -out are required")
		flag.Usage()
		os.Exit(2)
	}

	g, err := kg.LoadFile(*graphPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vkg-train: loading graph: %v\n", err)
		os.Exit(1)
	}
	if *l1 {
		cfg.Norm = embedding.L1
	}

	start := time.Now()
	res, err := embedding.Train(g, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vkg-train: %v\n", err)
		os.Exit(1)
	}
	if *verbose {
		for i, l := range res.EpochLosses {
			fmt.Printf("epoch %3d  loss %.6f\n", i+1, l)
		}
	}
	if err := res.Model.SaveFile(*out); err != nil {
		fmt.Fprintf(os.Stderr, "vkg-train: saving model: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("trained %d-dim TransE on %d triples in %v; final loss %.6f; wrote %s\n",
		cfg.Dim, g.NumTriples(), time.Since(start).Round(time.Millisecond),
		res.EpochLosses[len(res.EpochLosses)-1], *out)
}
