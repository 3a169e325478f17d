// Command bench is the repository's benchmark: four workloads over the
// public API, end-to-end metrics with tracing off, and a separate traced
// run that attributes time to layers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

var workloadNames = []string{wlTopKLarge, wlHTTPMixed, wlColdCrack, wlUpdateWAL}

// runWorkload runs one workload in the mode cfg selects.
func runWorkload(name string, cfg runConfig) (*report, error) {
	sz := sizesFor(cfg)
	if cfg.Trace {
		sz = sz.traced()
	}
	var spec steadySpec
	switch name {
	case wlTopKLarge:
		spec = topkLarge(cfg, sz)
	case wlHTTPMixed:
		spec = httpMixed(cfg, sz)
	case wlUpdateWAL:
		spec = updateWAL(cfg, sz)
	case wlColdCrack:
		if cfg.Trace {
			return withSpanFile(name, cfg, func(tr *tracer) (*report, error) { return runColdTraced(cfg, sz, tr) })
		}
		return runColdCrack(cfg, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if cfg.Trace {
		return withSpanFile(name, cfg, func(tr *tracer) (*report, error) { return runSteadyTraced(cfg, sz, spec, tr) })
	}
	return runSteady(cfg, sz, spec)
}

// environment is recorded with every result: the numbers mean nothing
// without the machine and the toolchain they came from.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Clients    int    `json:"clients"`
	WALSync    string `json:"wal_sync"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func environmentOf(cfg runConfig) environment {
	return environment{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Clients: clients, WALSync: "interval (default, 100ms ticker)",
		Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
	}
}

// summary is the JSON document of one invocation. Claim comes last and is
// null: this benchmark defines the baseline, it claims no gain.
type summary struct {
	Env     environment `json:"env"`
	Reports []*report   `json:"reports"`
	Claim   *string     `json:"claim"`
}

// driverLine is the last line of standard output when one workload is run:
// the object the benchmark driver reads.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) driverLine(defs []metricDef) driverLine {
	out := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = driverValue{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	return out
}

// print writes the report for a reader: every metric by name with its
// unit, then whatever the gates found.
func (r *report) print(defs []metricDef) {
	fmt.Printf("workload %s: attempted %d, failed %d, correct %v\n", r.Workload, r.Attempted, r.Failed, r.Correct)
	line := func(mark, name string, value float64, unit string) {
		s := fmt.Sprintf("  %s%-36s %14.4f %s", mark, name, value, unit)
		if n, ok := r.Samples[name]; ok {
			s += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(s)
	}
	for _, d := range defs {
		line("", d.Name, r.Metrics[d.Name], d.Unit)
	}
	extra := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		extra = append(extra, k)
	}
	sort.Strings(extra)
	for _, k := range extra {
		line("+ ", k, r.Extra[k], "")
	}
	for _, v := range r.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
}

func main() {
	var cfg runConfig
	var workload string
	var trace int
	var aa bool
	flag.StringVar(&workload, "workload", "", "workload to run: topk-large, http-mixed, cold-crack or update-wal (default: all four)")
	flag.Int64Var(&cfg.Seed, "seed", defaultSeed, "seed of the operation sequences and the probes (the data set is fixed)")
	flag.IntVar(&cfg.Seconds, "seconds", defaultSeconds, "nominal length of the measured part; it sizes the fixed operation lists")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run: one client, quarter length, spans and ladder")
	flag.BoolVar(&cfg.Short, "short", false, "test sizes: a few thousand entities, a few hundred operations")
	flag.BoolVar(&aa, "aa", false, "run every workload twice in alternating order and compare the pairs against the bounds")
	flag.StringVar(&cfg.WorkDir, "workdir", ".bench_build/work", "directory under which each invocation keeps its WAL and snapshot files until it exits")
	flag.StringVar(&cfg.Out, "out", "", "directory for the span files of a traced run, spans-<workload>.jsonl (default: the parent of -workdir)")
	flag.Parse()
	if flag.NArg() > 0 || cfg.Seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-aa] [-short]")
		os.Exit(2)
	}
	cfg.Trace = trace == 1
	if err := run(cfg, workload, aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig, workload string, aa bool) error {
	// The files of this invocation go into a directory of their own under
	// -workdir, and only that is removed afterwards.
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return err
	}
	if cfg.Out == "" {
		cfg.Out = filepath.Join(cfg.WorkDir, "..")
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "run-")
	if err != nil {
		return err
	}
	cfg.WorkDir = dir
	defer os.RemoveAll(dir)
	if aa {
		return runAA(cfg)
	}
	names := workloadNames
	if workload != "" {
		names = []string{workload}
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	sum := summary{Env: environmentOf(cfg)}
	ok := true
	for _, name := range names {
		rep, err := runWorkload(name, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rep.print(defs)
		sum.Reports = append(sum.Reports, rep)
		ok = ok && rep.Correct
	}
	if err := json.NewEncoder(os.Stdout).Encode(sum); err != nil {
		return err
	}
	if workload != "" {
		// The driver's line goes last, and only when it names one workload.
		if err := json.NewEncoder(os.Stdout).Encode(sum.Reports[0].driverLine(defs)); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("a correctness gate failed")
	}
	return nil
}
