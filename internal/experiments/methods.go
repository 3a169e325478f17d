package experiments

import (
	"fmt"
	"sync"
	"time"

	"vkgraph/internal/core"
	"vkgraph/internal/h2alsh"
	"vkgraph/internal/kg"
	"vkgraph/internal/mf"
	"vkgraph/internal/phtree"
)

// MethodSpec names one bar group of a time/accuracy figure.
type MethodSpec struct {
	// Method is one of: noindex, phtree, bulk, crack, h2alsh.
	Method string
	// Alpha overrides the S2 dimensionality (0 = 3). Used by Fig. 5's
	// alpha=3 vs alpha=6 comparison.
	Alpha int
	// K overrides the per-method top-k (0 = the figure's k). Used by
	// Fig. 7's "H2-ALSH: 2" vs "H2-ALSH: 10" bars.
	K int
	// Label overrides the printed name.
	Label string
}

func (s MethodSpec) label() string {
	if s.Label != "" {
		return s.Label
	}
	l := s.Method
	if s.Alpha != 0 {
		l = fmt.Sprintf("%s(a=%d)", l, s.Alpha)
	}
	if s.K != 0 {
		l = fmt.Sprintf("%s:%d", l, s.K)
	}
	return l
}

// Runner answers workload queries for one method, with its offline build
// time (zero for the cracking methods and the no-index scan).
type Runner struct {
	Label     string
	BuildTime time.Duration
	// TopK answers one query; the caller measures wall time around it.
	TopK func(q Query, k int) []kg.EntityID
}

// NewRunner builds the runner for a method over a dataset. rel is only used
// by h2alsh (the single relation it can handle).
func NewRunner(ds *Dataset, spec MethodSpec, rel kg.RelationID) (*Runner, error) {
	p := core.DefaultParams()
	if spec.Alpha > 0 {
		p.Alpha = spec.Alpha
	}
	p.Attrs = []string{ds.AggAttr}

	switch {
	case spec.Method == "noindex":
		eng, err := core.NewEngine(ds.G, ds.M, core.Crack, p)
		if err != nil {
			return nil, err
		}
		return &Runner{Label: spec.label(), TopK: func(q Query, k int) []kg.EntityID {
			res, _ := eng.TopKNoIndex(q.Dir, q.E, q.R, k)
			return ids(res)
		}}, nil

	case spec.Method == "bulk":
		start := time.Now()
		eng, err := core.NewEngine(ds.G, ds.M, core.Bulk, p)
		if err != nil {
			return nil, err
		}
		build := time.Since(start)
		return &Runner{Label: spec.label(), BuildTime: build, TopK: engineTopK(eng)}, nil

	case spec.Method == "crack":
		start := time.Now()
		eng, err := core.NewEngine(ds.G, ds.M, core.Crack, p)
		if err != nil {
			return nil, err
		}
		build := time.Since(start) // ~0: cracking has no offline build
		return &Runner{Label: spec.label(), BuildTime: build, TopK: engineTopK(eng)}, nil

	case spec.Method == "phtree":
		start := time.Now()
		tree, err := phtree.New(ds.M.Dim, ds.M.Entities, phtree.DefaultConfig())
		if err != nil {
			return nil, err
		}
		build := time.Since(start)
		g, m := ds.G, ds.M
		return &Runner{Label: spec.label(), BuildTime: build, TopK: func(q Query, k int) []kg.EntityID {
			var q1 []float64
			var skip func(int32) bool
			if q.Dir == core.DirTail {
				q1 = m.TailQueryPoint(q.E, q.R)
				skip = func(id int32) bool { return id == q.E || g.HasEdge(q.E, q.R, id) }
			} else {
				q1 = m.HeadQueryPoint(q.E, q.R)
				skip = func(id int32) bool { return id == q.E || g.HasEdge(id, q.R, q.E) }
			}
			nbs, _ := tree.KNN(q1, k, skip)
			out := make([]kg.EntityID, len(nbs))
			for i, nb := range nbs {
				out[i] = nb.ID
			}
			return out
		}}, nil

	case spec.Method == "h2alsh":
		return newH2ALSHRunner(ds, spec, rel)

	default:
		return nil, fmt.Errorf("experiments: unknown method %q", spec.Method)
	}
}

func engineTopK(eng *core.Engine) func(q Query, k int) []kg.EntityID {
	return func(q Query, k int) []kg.EntityID {
		res, _ := eng.TopK(q.Dir, q.E, q.R, k)
		return ids(res)
	}
}

func ids(res *core.TopKResult) []kg.EntityID {
	if res == nil {
		return nil
	}
	out := make([]kg.EntityID, len(res.Predictions))
	for i, p := range res.Predictions {
		out[i] = p.Entity
	}
	return out
}

var (
	mfCacheMu sync.Mutex
	mfCache   = map[string]*mf.Model{}
)

// mfModel trains (or reuses) the single-relation matrix factorization the
// H2-ALSH methods operate on.
func mfModel(ds *Dataset, rel kg.RelationID) (*mf.Model, error) {
	key := fmt.Sprintf("%s-%d", ds.Name, rel)
	mfCacheMu.Lock()
	defer mfCacheMu.Unlock()
	if m, ok := mfCache[key]; ok {
		return m, nil
	}
	m, err := mf.Train(ds.G, rel, mf.DefaultConfig())
	if err != nil {
		return nil, err
	}
	mfCache[key] = m
	return m, nil
}

// NewMIPSScanRunner is the exact maximum-inner-product scan over the MF
// factors: the ground truth the paper measures H2-ALSH's precision against
// ("comparing to its no-index case").
func NewMIPSScanRunner(ds *Dataset, rel kg.RelationID) (*Runner, error) {
	model, err := mfModel(ds, rel)
	if err != nil {
		return nil, err
	}
	g := ds.G
	return &Runner{Label: "mips-scan", TopK: func(q Query, k int) []kg.EntityID {
		u := model.UserVec(q.E)
		type cand struct {
			id  kg.EntityID
			dot float64
		}
		best := make([]cand, 0, k+1)
		for i := 0; i < g.NumEntities(); i++ {
			id := kg.EntityID(i)
			if id == q.E || g.HasEdge(q.E, rel, id) {
				continue
			}
			v := model.ItemVec(id)
			var dot float64
			for j := range u {
				dot += u[j] * v[j]
			}
			pos := len(best)
			for pos > 0 && best[pos-1].dot < dot {
				pos--
			}
			if pos < k {
				if len(best) < k {
					best = append(best, cand{})
				}
				copy(best[pos+1:], best[pos:])
				best[pos] = cand{id: id, dot: dot}
			}
		}
		out := make([]kg.EntityID, len(best))
		for i, c := range best {
			out[i] = c.id
		}
		return out
	}}, nil
}

// newH2ALSHRunner builds the hashed index over the MF item factors. MF
// training, like TransE training for the other methods, is not charged to
// the index build time; the H2-ALSH hash construction is.
func newH2ALSHRunner(ds *Dataset, spec MethodSpec, rel kg.RelationID) (*Runner, error) {
	model, err := mfModel(ds, rel)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	idx, err := h2alsh.New(model.Dim, model.V, h2alsh.DefaultConfig())
	if err != nil {
		return nil, err
	}
	build := time.Since(start)
	g := ds.G
	return &Runner{Label: spec.label(), BuildTime: build, TopK: func(q Query, k int) []kg.EntityID {
		// H2-ALSH answers only (user, rel, ?) MIPS queries.
		u := model.UserVec(q.E)
		res, _ := idx.TopK(u, k, func(id int32) bool {
			return id == q.E || g.HasEdge(q.E, rel, id)
		})
		out := make([]kg.EntityID, len(res))
		for i, r := range res {
			out[i] = r.ID
		}
		return out
	}}, nil
}
