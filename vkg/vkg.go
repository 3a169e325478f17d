// Package vkg is the public API of vkgraph: build a virtual knowledge graph
// (Li, Ge, Chen; ICDE 2020) from your triples and ask it predictive top-k
// entity queries and aggregate queries with accuracy guarantees.
//
// A virtual knowledge graph extends a knowledge graph with predicted edges
// and their probabilities. The pipeline is:
//
//  1. a TransE embedding is trained on the graph's triples (the prediction
//     algorithm A of the paper);
//  2. embedding vectors are projected from the d-dimensional space S1 into
//     a low-dimensional space S2 by a Johnson-Lindenstrauss transform with
//     small-alpha tail bounds (Theorem 1);
//  3. a cracking, uneven R-tree over S2 is built online by the queries
//     themselves (Section IV), so there is no offline index build;
//  4. top-k queries run Algorithm 3 and aggregate queries run the sampled
//     estimators of Section V-B, each answer carrying its theoretical
//     accuracy bound.
//
// Quickstart:
//
//	g := vkg.NewGraph()
//	amy := g.AddEntity("Amy", "user")
//	r1 := g.AddEntity("Restaurant 1", "restaurant")
//	likes := g.AddRelation("rates-high")
//	g.AddTriple(amy, likes, r1)
//	// ... more entities and triples ...
//	v, err := vkg.Build(g, vkg.WithSeed(42))
//	preds, err := v.TopKTails(amy, likes, 5) // top-5 restaurants Amy would rate high
//
// # Batched queries
//
// Serving workloads issue many queries at once; Query and DoBatch are the
// request API for that. A Query names the direction (Tails/Heads), the kind
// (TopK/Aggregate), the entity and relation, and optional per-query
// Epsilon/ProbThreshold overrides; DoBatch fans a slice of them across a
// bounded worker pool, coalesces duplicate top-k requests into one index
// descent, serves repeats of an unchanged graph from an LRU result cache,
// and honors context cancellation:
//
//	queries := []vkg.Query{
//		{Entity: amy, Relation: likes, K: 5},
//		{Kind: vkg.Aggregate, Dir: vkg.Heads, Entity: r1, Relation: likes,
//			Agg: vkg.AggSpec{Kind: vkg.Avg, Attr: "age", MaxAccess: 50}},
//	}
//	for i, res := range v.DoBatch(ctx, queries) {
//		if res.Err != nil { ... } // per-query failures don't fail the batch
//	}
//
// TopKTails, TopKHeads, AggregateTails, and AggregateHeads are thin
// wrappers over the same path, so single-query callers share the cache and
// the validation.
//
// # Observability
//
// Engine counters are always on and lock-free. Metrics returns a structured
// snapshot (latency percentiles, cache effectiveness, index node accesses,
// cracking activity); Query.Trace asks for a per-query stage breakdown in
// Result.Trace, and the engine's trace store keeps traced queries that
// failed or ran slower than SetTraceSlowThreshold. Over
// HTTP, the serving layer (cmd/vkg-serve, or vkg-query -metrics-addr)
// renders both on one ops page: Prometheus /metrics, /traces, and pprof.
//
// # Concurrency and durability
//
// A built VKG is safe for concurrent use: queries, aggregates, AddFact,
// InsertEntity, Save, and IndexStats may run from multiple goroutines.
// Queries run under a shared engine lock and write-lock the index only when
// their region still holds a pending element to split, so a converged index
// serves reads without serializing.
//
// Save/SaveFile write checksummed, versioned snapshots; SaveFile is atomic
// (temp file + rename), so a crash mid-save never destroys the previous
// snapshot. Load returns typed errors for damaged input — see
// ErrCorruptSnapshot and ErrVersion — and degrades gracefully when only the
// index section is damaged (see IndexRebuilt).
package vkg

import (
	"errors"
	"fmt"

	"vkgraph/internal/core"
	"vkgraph/internal/embedding"
	"vkgraph/internal/kg"
)

// EntityID identifies an entity in a Graph.
type EntityID = int32

// RelationID identifies a relationship type in a Graph.
type RelationID = int32

// Graph is a knowledge graph under construction: typed entities, named
// relationship types, (head, relation, tail) triples, and numeric entity
// attributes for aggregate queries.
type Graph struct {
	g *kg.Graph
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{g: kg.NewGraph()} }

// AddEntity creates an entity with a display name and a type tag and
// returns its id.
func (gr *Graph) AddEntity(name, typ string) EntityID { return gr.g.AddEntity(name, typ) }

// AddRelation creates (or looks up) a relationship type by name.
func (gr *Graph) AddRelation(name string) RelationID { return gr.g.AddRelation(name) }

// AddTriple records the fact (h, r, t). Duplicate triples are ignored.
func (gr *Graph) AddTriple(h EntityID, r RelationID, t EntityID) error {
	return gr.g.AddTriple(h, r, t)
}

// SetAttr attaches a numeric attribute value to an entity; attribute
// columns are what aggregate queries aggregate.
func (gr *Graph) SetAttr(attr string, id EntityID, value float64) { gr.g.SetAttr(attr, id, value) }

// EntityName returns the display name of an entity.
func (gr *Graph) EntityName(id EntityID) string { return gr.g.Entity(id).Name }

// EntityByName returns the first entity created with the given name.
func (gr *Graph) EntityByName(name string) (EntityID, bool) { return gr.g.EntityByName(name) }

// RelationByName returns the relationship type with the given name.
func (gr *Graph) RelationByName(name string) (RelationID, bool) { return gr.g.RelationByName(name) }

// NumEntities returns the number of entities.
func (gr *Graph) NumEntities() int { return gr.g.NumEntities() }

// NumTriples returns the number of recorded facts.
func (gr *Graph) NumTriples() int { return gr.g.NumTriples() }

// HasEdge reports whether (h, r, t) is a known fact (an edge of E, not a
// prediction).
func (gr *Graph) HasEdge(h EntityID, r RelationID, t EntityID) bool { return gr.g.HasEdge(h, r, t) }

// AttrNames returns the names of every attribute column set on the graph,
// ready to pass to WithAttributes.
func (gr *Graph) AttrNames() []string { return gr.g.AttrNames() }

// WrapGraph adopts an already-built internal graph (used by the CLI tools
// that load graphs from disk).
func WrapGraph(g *kg.Graph) *Graph { return &Graph{g: g} }

// IndexMode selects the index backend.
type IndexMode int

const (
	// ModeCrack is the paper's contribution: no offline build, the index
	// grows with the query workload. Default.
	ModeCrack IndexMode = iota
	// ModeBulk bulk-loads the complete R-tree up front (Algorithm 1).
	ModeBulk
	// ModeNoIndex answers every query by scanning all entities in S1. It
	// is exact (it is the paper's accuracy ground truth) but slow.
	ModeNoIndex
)

// EmbeddingParams expose the TransE hyperparameters.
type EmbeddingParams struct {
	Dim          int     // embedding dimensionality (default 50)
	Epochs       int     // training epochs (default 30)
	LearningRate float64 // SGD step (default 0.01)
	Margin       float64 // ranking margin (default 1.0)
	L1           bool    // use L1 dissimilarity instead of L2
}

type options struct {
	mode  IndexMode
	alpha int
	eps   float64
	seed  int64
	emb   EmbeddingParams
	model *embedding.Model
	attrs []string
}

// Option customizes Build.
type Option func(*options)

// WithIndexMode selects the index backend (default ModeCrack).
func WithIndexMode(m IndexMode) Option { return func(o *options) { o.mode = m } }

// WithAlpha sets the S2 dimensionality (default 3; the paper also evaluates
// 6).
func WithAlpha(alpha int) Option { return func(o *options) { o.alpha = alpha } }

// WithEpsilon sets the query-expansion epsilon of Algorithm 3 (default
// 0.75). Larger values improve the Theorem 2 recall bound at higher cost.
func WithEpsilon(eps float64) Option { return func(o *options) { o.eps = eps } }

// WithSeed fixes all randomized components (embedding init, JL projection).
func WithSeed(seed int64) Option { return func(o *options) { o.seed = seed } }

// WithEmbedding overrides the TransE hyperparameters.
func WithEmbedding(p EmbeddingParams) Option { return func(o *options) { o.emb = p } }

// WithPretrainedModel skips training and uses the given model (as loaded by
// the vkg-train tool, or another VKG's src.Engine().Model(), which is how
// comparison runs build several index backends over one embedding). The
// model must match the graph's entity/relation counts.
func WithPretrainedModel(m *embedding.Model) Option { return func(o *options) { o.model = m } }

// WithAttributes registers graph attribute columns with the index so they
// can be aggregated. Attributes named in aggregate queries must be listed
// here.
func WithAttributes(names ...string) Option {
	return func(o *options) { o.attrs = append(o.attrs, names...) }
}

// VKG is a queryable virtual knowledge graph. All methods are safe for
// concurrent use (see the package documentation for the locking model).
type VKG struct {
	graph  *Graph
	eng    *core.Engine
	mode   IndexMode
	noIdx  bool
	trainL []float64
}

// Build constructs a virtual knowledge graph: trains (or adopts) the
// embedding, projects it to S2, and prepares the index backend.
func Build(gr *Graph, opts ...Option) (*VKG, error) {
	if gr == nil {
		return nil, errors.New("vkg: nil graph")
	}
	o := options{
		mode:  ModeCrack,
		alpha: 3,
		eps:   0.75,
		seed:  1,
		emb:   EmbeddingParams{},
	}
	for _, opt := range opts {
		opt(&o)
	}
	gr.g.Freeze()

	model := o.model
	var losses []float64
	if model == nil {
		cfg := embedding.DefaultConfig()
		cfg.Seed = o.seed
		if o.emb.Dim > 0 {
			cfg.Dim = o.emb.Dim
		}
		if o.emb.Epochs > 0 {
			cfg.Epochs = o.emb.Epochs
		}
		if o.emb.LearningRate > 0 {
			cfg.LearningRate = o.emb.LearningRate
		}
		if o.emb.Margin > 0 {
			cfg.Margin = o.emb.Margin
		}
		if o.emb.L1 {
			cfg.Norm = embedding.L1
		}
		tr, err := embedding.Train(gr.g, cfg)
		if err != nil {
			return nil, fmt.Errorf("vkg: training embedding: %w", err)
		}
		model = tr.Model
		losses = tr.EpochLosses
	}

	params := core.Params{
		Alpha: o.alpha,
		Eps:   o.eps,
		PTau:  0.05, // an aggregate query may set its own (AggSpec.ProbThreshold)
		Seed:  o.seed,
		Attrs: o.attrs,
	}
	mode := core.Crack
	if o.mode == ModeBulk {
		mode = core.Bulk
	}
	eng, err := core.NewEngine(gr.g, model, mode, params)
	if err != nil {
		return nil, fmt.Errorf("vkg: building engine: %w", err)
	}
	return &VKG{
		graph:  gr,
		eng:    eng,
		mode:   o.mode,
		noIdx:  o.mode == ModeNoIndex,
		trainL: losses,
	}, nil
}

// Graph returns the underlying graph.
func (v *VKG) Graph() *Graph { return v.graph }

// Engine exposes the internal engine for the module's own tools and
// benchmarks.
//
// Deprecated: the engine API is internal and not stable. External callers
// should use the VKG methods — Do/DoBatch cover everything the engine's
// query surface does; Engine remains only for the cmd/ tools of this
// module.
func (v *VKG) Engine() *core.Engine { return v.eng }

// TrainingLosses returns the per-epoch embedding losses (empty when a
// pretrained model was supplied).
func (v *VKG) TrainingLosses() []float64 { return v.trainL }
