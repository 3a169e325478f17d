package main

import (
	"fmt"
	"runtime"
	"time"

	"vkgraph/internal/kg/kggen"
)

// defaultSeed is the seed of a run that names none, and defaultSeconds its
// nominal length: the run_seconds of BENCHMARK.json.
const (
	defaultSeed    = 1
	defaultSeconds = 10
)

// clients is the size of the load generator: this machine has two cores,
// and the callers modelled are application servers with a small bounded
// pool, each waiting for its reply.
const clients = 2

// runConfig is one invocation's settings.
type runConfig struct {
	Seed    int64
	Seconds int  // sizes the measured operation lists; see sizes
	Short   bool // test sizes: a few thousand entities, a few hundred operations
	Trace   bool // the per-layer run: one client, quarter length, spans and ladder
	WorkDir string
	Out     string // directory for the span file of a traced run
}

// sizes are a run's graph sizes and operation counts. Measured counts are a
// nominal rate times -seconds: the lists are fixed by the seed and the
// flags, never by the clock, so two runs do the same work.
type sizes struct {
	synth  synthConfig
	movie  kggen.MovieConfig
	epochs int
	reps   int // repetitions of start, warm up, measure a part; the time metrics are their medians

	poolKeys                    int // size of the movie workloads' Zipf key pool
	warmTopK, warmHTTP, warmWAL int
	topkOps, httpOps, walOps    int // measured operations
	coldReps, coldQueries       int
	coldEarly                   int // queries by which the index should have converged

	// An exact scan of synth-large costs milliseconds, one of movie-full
	// microseconds, so the small graph can afford more probes.
	precisionProbes, moviePrecisionProbes int
	aggProbes, httpProbes, replayProbes   int
}

func sizesFor(cfg runConfig) sizes {
	if cfg.Short {
		return sizes{
			synth:  synthConfig{Users: 1000, Items: 2000, Dim: 50, Latent: 10, MicroSize: 40, Noise: 0.15, LikesPerUser: 3},
			movie:  kggen.TinyMovieConfig(),
			epochs: 5,
			reps:   1,

			poolKeys: 200,
			warmTopK: 100, warmHTTP: 100, warmWAL: 100,
			topkOps: 300, httpOps: 300, walOps: 300,
			coldReps: 2, coldQueries: 150, coldEarly: 150, // too small a graph to converge early

			precisionProbes: 32, moviePrecisionProbes: 32, aggProbes: 8, httpProbes: 16, replayProbes: 8,
		}
	}
	return sizes{
		synth:  synthLarge(),
		movie:  kggen.DefaultMovieConfig(),
		epochs: 50,
		reps:   5,

		poolKeys: 20_000,
		warmTopK: 3000, warmHTTP: 5000, warmWAL: 3000,
		// Nominal rates, a little under what this machine sustains, so a
		// run measures for about -seconds.
		topkOps: 6000 * cfg.Seconds, httpOps: 3500 * cfg.Seconds, walOps: 2000 * cfg.Seconds,
		coldReps: max(3, cfg.Seconds*4/5), coldQueries: 1500, coldEarly: 1000,

		precisionProbes: 256, moviePrecisionProbes: 1024, aggProbes: 64, httpProbes: 256, replayProbes: 64,
	}
}

// traced shrinks the measured operation lists to a quarter; with the one
// client a traced run uses, its counts repeat exactly. The warm-up keeps its
// length: it is what converges the index, and a traced run must measure the
// same converged state.
func (s sizes) traced() sizes {
	s.reps = 1
	s.topkOps, s.httpOps, s.walOps = s.topkOps/4, s.httpOps/4, s.walOps/4
	s.coldReps = 1
	return s
}

// report is the outcome of one workload run.
type report struct {
	Workload   string             `json:"workload"`
	Correct    bool               `json:"correct"`
	Violations []string           `json:"violations,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]float64 `json:"metrics"`
	// Samples is the number of observations behind each latency metric.
	Samples map[string]int `json:"samples,omitempty"`
	// Extra holds the end-to-end metrics only this workload has and the
	// quantities the gates checked.
	Extra map[string]float64 `json:"extra,omitempty"`
}

func newReport(workload string) *report {
	return &report{Workload: workload, Correct: true,
		Metrics: map[string]float64{}, Samples: map[string]int{}, Extra: map[string]float64{}}
}

func (r *report) violate(format string, args ...any) {
	r.Correct = false
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// count folds a load run into the attempted and failed totals.
func (r *report) count(st *loadStats) {
	r.Attempted += st.attempted
	r.Failed += st.failed
}

// heapBytesPerEntity is the live heap after a collection, per entity: what
// the graph, model and converged index cost to keep.
func heapBytesPerEntity(entities int) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / float64(entities)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// deadlineFor bounds a measured pass over one of `parts` equal parts of the
// operation list at three times its nominal length.
func deadlineFor(cfg runConfig, parts int) time.Time {
	return time.Now().Add(3 * time.Duration(cfg.Seconds) * time.Second / time.Duration(parts))
}
