// Package experiments reproduces every table and figure of the paper's
// evaluation (Section VI) over the synthetic stand-ins for Freebase,
// MovieLens and Amazon (see DESIGN.md §3 for the substitution rationale).
// Each figure has one driver returning printable rows, and cmd/vkg-bench
// (-exp <id>) is the one command that runs them.
package experiments

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg"
	"vkgraph/internal/kg/kggen"
)

// Scale selects dataset sizing.
type Scale int

const (
	// Tiny is for unit tests: seconds-fast end to end.
	Tiny Scale = iota
	// Full is the experiment scale of DESIGN.md §3.
	Full
)

// ParseScale turns "tiny" or "full" into a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return Tiny, nil
	case "full":
		return Full, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want tiny or full)", s)
	}
}

// Dataset bundles a generated graph with its trained TransE embedding.
type Dataset struct {
	Name string
	G    *kg.Graph
	M    *embedding.Model
	// AggAttr is the attribute used by this dataset's aggregate figures.
	AggAttr string
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*Dataset{}
)

// trainConfig returns per-scale TransE hyperparameters. Full scale trains
// longer and hotter than the library default: the Amazon instance (48k
// entities, ~300k triples) needs ~50 epochs at lr 0.02 before its
// micro-cluster neighborhoods fully collapse, and the query-ball occupancy
// (hence every latency figure) depends on that convergence.
func trainConfig(s Scale) embedding.Config {
	cfg := embedding.DefaultConfig()
	cfg.Epochs, cfg.LearningRate = 50, 0.02
	if s == Tiny {
		cfg.Epochs, cfg.LearningRate = 10, 0.01
	}
	return cfg
}

// generator returns a dataset's generator config at scale s, the function
// that generates its graph, and the attribute its aggregate figures use.
func generator(name string, s Scale) (cfg any, gen func() *kg.Graph, aggAttr string, err error) {
	switch name {
	case "freebase":
		c := kggen.DefaultFreebaseConfig()
		if s == Tiny {
			c = kggen.TinyFreebaseConfig()
		}
		return c, func() *kg.Graph { return kggen.Freebase(c) }, "popularity", nil
	case "movie":
		c := kggen.DefaultMovieConfig()
		if s == Tiny {
			c = kggen.TinyMovieConfig()
		}
		return c, func() *kg.Graph { return kggen.Movie(c) }, "year", nil
	case "amazon":
		c := kggen.DefaultAmazonConfig()
		if s == Tiny {
			c = kggen.TinyAmazonConfig()
		}
		return c, func() *kg.Graph { return kggen.Amazon(c) }, "quality", nil
	default:
		return nil, nil, "", fmt.Errorf("experiments: unknown dataset %q", name)
	}
}

// diskKey names a dataset's files in the disk cache. Besides the name and
// scale it carries a short hash of the generator and training configs, so a
// changed config misses the cache instead of loading the old graph and
// embedding.
func diskKey(name string, s Scale, gen any, train embedding.Config) string {
	h := fnv.New32a()
	fmt.Fprintf(h, "%#v|%#v", gen, train)
	return fmt.Sprintf("%s-%d-%08x", name, s, h.Sum32())
}

// LoadDataset generates (or loads from cache) one of the three datasets:
// "freebase", "movie", or "amazon". Results are memoized in-process and on
// disk (under $VKG_CACHE or the system temp directory), since TransE
// training is by far the most expensive setup step and is identical across
// figures.
func LoadDataset(name string, s Scale) (*Dataset, error) {
	memoKey := fmt.Sprintf("%s-%d", name, s)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if ds, ok := cache[memoKey]; ok {
		return ds, nil
	}
	gcfg, gen, aggAttr, err := generator(name, s)
	if err != nil {
		return nil, err
	}
	ecfg := trainConfig(s)
	key := diskKey(name, s, gcfg, ecfg)

	ds, err := loadFromDisk(key)
	if err != nil {
		ds = &Dataset{G: gen()}
		tr, err := embedding.Train(ds.G, ecfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: training %s: %w", name, err)
		}
		ds.M = tr.Model
		if err := saveToDisk(key, ds); err != nil {
			// Disk caching is best-effort; in-process cache still applies.
			fmt.Fprintf(os.Stderr, "experiments: cache write failed: %v\n", err)
		}
	}
	ds.Name, ds.AggAttr = name, aggAttr
	cache[memoKey] = ds
	return ds, nil
}

func cacheDir() string {
	if dir := os.Getenv("VKG_CACHE"); dir != "" {
		return dir
	}
	return filepath.Join(os.TempDir(), "vkgraph-cache")
}

func loadFromDisk(key string) (*Dataset, error) {
	dir := cacheDir()
	g, err := kg.LoadFile(filepath.Join(dir, key+".graph"))
	if err != nil {
		return nil, err
	}
	m, err := embedding.LoadFile(filepath.Join(dir, key+".model"))
	if err != nil {
		return nil, err
	}
	if m.NumEntities() != g.NumEntities() {
		return nil, fmt.Errorf("experiments: stale cache for %s", key)
	}
	return &Dataset{G: g, M: m}, nil
}

func saveToDisk(key string, ds *Dataset) error {
	dir := cacheDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := ds.G.SaveFile(filepath.Join(dir, key+".graph")); err != nil {
		return err
	}
	return ds.M.SaveFile(filepath.Join(dir, key+".model"))
}
