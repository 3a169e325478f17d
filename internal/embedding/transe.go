// Package embedding implements the TransE knowledge-graph embedding of
// Bordes et al. (NIPS 2013), the prediction algorithm A that induces the
// virtual knowledge graph (Definition 1 of the paper). Each entity and each
// relationship type receives a d-dimensional vector such that h + r ≈ t for
// true triples; the dissimilarity ||h + r - t|| ranks candidate edges, and
// the closest candidate defines probability 1 with other probabilities
// inversely proportional to distance (Section V-B of the paper).
//
// The trainer supports L1 and L2 dissimilarities and both the uniform and
// Bernoulli negative-sampling strategies.
package embedding

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"

	"vkgraph/internal/atomicfile"
	"vkgraph/internal/kg"
	"vkgraph/internal/snapfmt"
)

// Norm selects the dissimilarity used by TransE.
type Norm int

const (
	// L2 uses squared Euclidean distance during training (the standard
	// smooth surrogate) and Euclidean distance for ranking.
	L2 Norm = iota
	// L1 uses Manhattan distance.
	L1
)

// Sampling selects the negative-sampling strategy.
type Sampling int

const (
	// Uniform corrupts head or tail with equal probability.
	Uniform Sampling = iota
	// Bernoulli corrupts the side chosen by the relation's tph/hpt ratio
	// (Wang et al., AAAI 2014), reducing false negatives for 1-N and N-1
	// relations.
	Bernoulli
)

// Config holds TransE hyperparameters.
type Config struct {
	Dim          int     // embedding dimensionality d (paper: 50 or 100)
	Epochs       int     // SGD passes over the triple set
	LearningRate float64 // SGD step size
	Margin       float64 // ranking-loss margin gamma
	Norm         Norm
	Sampling     Sampling
	Seed         int64
	// NoEntityRenorm disables the per-epoch L2 renormalization of entity
	// vectors. Bordes et al. renormalize every epoch; leaving vectors free
	// lets well-separated communities drift apart in the embedding space,
	// which sharpens the distance contrast that spatial indexing exploits.
	NoEntityRenorm bool
	// Workers sets the number of parallel SGD goroutines. 1 (default) is
	// fully deterministic; higher values run lock-free "Hogwild" updates,
	// with benign races that only perturb the embedding slightly (and
	// therefore give non-deterministic but equivalent-quality models).
	// Hogwild is not faster on a small machine: on 2 vCPUs (go1.24, the
	// 131,064-triple movie graph, d = 50, 50 epochs) Workers = 2 took
	// 5.1-5.5 s and the deterministic trainer 3.0-3.3 s, since that trainer
	// already runs its sampling on a second goroutine. Note that the race
	// detector flags Hogwild's intentional races: run -race test builds
	// with Workers = 1.
	Workers int
	// PositivePull adds lambda * d(h+r, t) for true triples to the margin
	// ranking loss. Pure margin ranking stops optimizing a positive triple
	// once it beats its corrupted sibling by the margin, which leaves true
	// tails at distances comparable to the global distance scale; a small
	// pull term (0.1-0.5) compresses true neighborhoods toward their h+r
	// points, giving top-k queries the tight query balls that the paper's
	// real datasets exhibit. 0 disables the term (classic TransE).
	PositivePull float64
}

// DefaultConfig returns the hyperparameters used by the experiments:
// d = 50, 30 epochs, lr 0.01, margin 1, L2, Bernoulli sampling, and a
// positive-pull of 0.5 (see Config.PositivePull).
func DefaultConfig() Config {
	return Config{
		Dim:          50,
		Epochs:       30,
		LearningRate: 0.01,
		Margin:       1.0,
		Norm:         L2,
		Sampling:     Bernoulli,
		Seed:         42,
		PositivePull: 0.5,
	}
}

// Model is a trained TransE embedding: one vector per entity and one per
// relationship type, stored row-major with stride Dim.
type Model struct {
	Dim      int
	Entities []float64 // numEntities x Dim
	Rels     []float64 // numRelations x Dim
	NormUsed Norm
}

// NumEntities returns the number of entity vectors.
func (m *Model) NumEntities() int { return len(m.Entities) / m.Dim }

// NumRelations returns the number of relation vectors.
func (m *Model) NumRelations() int { return len(m.Rels) / m.Dim }

// EntityVec returns a view of entity id's vector. The slice aliases the
// model and must not be modified.
func (m *Model) EntityVec(id kg.EntityID) []float64 {
	return m.Entities[int(id)*m.Dim : (int(id)+1)*m.Dim]
}

// RelVec returns a view of relation id's vector.
func (m *Model) RelVec(id kg.RelationID) []float64 {
	return m.Rels[int(id)*m.Dim : (int(id)+1)*m.Dim]
}

// Dissimilarity returns ||h + r - t|| under the model's norm; smaller means
// the triple is more plausible.
func (m *Model) Dissimilarity(h kg.EntityID, r kg.RelationID, t kg.EntityID) float64 {
	hv, rv, tv := m.EntityVec(h), m.RelVec(r), m.EntityVec(t)
	var s float64
	if m.NormUsed == L1 {
		for i := range hv {
			s += math.Abs(hv[i] + rv[i] - tv[i])
		}
		return s
	}
	for i := range hv {
		d := hv[i] + rv[i] - tv[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Score returns the negated dissimilarity, so larger is more plausible.
func (m *Model) Score(h kg.EntityID, r kg.RelationID, t kg.EntityID) float64 {
	return -m.Dissimilarity(h, r, t)
}

// TailQueryPoint returns h + r in S1: the point whose nearest entity vectors
// are the most plausible tails for (h, r, ?).
func (m *Model) TailQueryPoint(h kg.EntityID, r kg.RelationID) []float64 {
	hv, rv := m.EntityVec(h), m.RelVec(r)
	out := make([]float64, m.Dim)
	for i := range out {
		out[i] = hv[i] + rv[i]
	}
	return out
}

// HeadQueryPoint returns t - r in S1: the point whose nearest entity vectors
// are the most plausible heads for (?, r, t).
func (m *Model) HeadQueryPoint(t kg.EntityID, r kg.RelationID) []float64 {
	tv, rv := m.EntityVec(t), m.RelVec(r)
	out := make([]float64, m.Dim)
	for i := range out {
		out[i] = tv[i] - rv[i]
	}
	return out
}

// TrainResult reports per-epoch training statistics.
type TrainResult struct {
	Model       *Model
	EpochLosses []float64 // mean margin-ranking loss per epoch
}

// Train fits a TransE model to the graph's triples.
//
// With one worker (the default) training is deterministic: a sample stream
// (see sampleStream) draws every shuffle and corruption on a goroutine of its
// own, in the same order as a single loop would, while this goroutine runs
// the SGD steps, so the model depends on cfg and the graph alone.
func Train(g *kg.Graph, cfg Config) (*TrainResult, error) {
	if g.NumEntities() == 0 {
		return nil, errors.New("embedding: graph has no entities")
	}
	if g.NumTriples() == 0 {
		return nil, errors.New("embedding: graph has no triples")
	}
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("embedding: invalid dimension %d", cfg.Dim)
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("embedding: invalid epoch count %d", cfg.Epochs)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	nE, nR, d := g.NumEntities(), g.NumRelations(), cfg.Dim
	m := &Model{
		Dim:      d,
		Entities: make([]float64, nE*d),
		Rels:     make([]float64, nR*d),
		NormUsed: cfg.Norm,
	}

	// Initialization per Bordes et al.: uniform in [-6/sqrt(d), 6/sqrt(d)];
	// relation vectors normalized once, entity vectors normalized every
	// epoch.
	bound := 6 / math.Sqrt(float64(d))
	for i := range m.Entities {
		m.Entities[i] = rng.Float64()*2*bound - bound
	}
	for i := range m.Rels {
		m.Rels[i] = rng.Float64()*2*bound - bound
	}
	for r := 0; r < nR; r++ {
		normalizeRow(m.Rels[r*d : (r+1)*d])
	}

	// Bernoulli corruption probabilities: replace the head with probability
	// tph / (tph + hpt) for each relation.
	corruptHeadProb := bernoulliProbs(g)

	triples := g.Triples()
	order := make([]int, len(triples))
	for i := range order {
		order[i] = i
	}

	// From here on the stream owns rng and order.
	var stream *sampleStream
	if cfg.Workers <= 1 {
		stream = startSampleStream(g, cfg, rng, corruptHeadProb, order)
		defer stream.close()
	}

	grad := make([]float64, d)
	losses := make([]float64, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if !cfg.NoEntityRenorm || epoch == 0 {
			for e := 0; e < nE; e++ {
				normalizeRow(m.Entities[e*d : (e+1)*d])
			}
		}
		var lossSum float64
		if stream != nil {
			lossSum = stream.epoch(m, cfg, len(order), grad)
		} else {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			lossSum = trainEpochParallel(g, m, cfg, corruptHeadProb, triples, order, int64(epoch))
		}
		losses = append(losses, lossSum/float64(len(order)))
	}
	if !cfg.NoEntityRenorm {
		for e := 0; e < nE; e++ {
			normalizeRow(m.Entities[e*d : (e+1)*d])
		}
	}
	return &TrainResult{Model: m, EpochLosses: losses}, nil
}

// sample is one SGD step's input: a true triple and its corrupted sibling.
type sample struct{ pos, neg kg.Triple }

// The stream's memory is streamDepth chunks of sampleChunk samples (24 bytes
// each), about 0.4 MB, however large the graph. Several chunks in flight let
// the producer run ahead through a slow stretch of corrupt (a tail with many
// known edges) without the consumer waiting.
const (
	sampleChunk = 4096
	streamDepth = 4
)

// sampleStream is the deterministic trainer's sampler. A goroutine owns the
// RNG: each epoch it shuffles the triple order and corrupts every triple in
// that order, and sends the samples in chunks; the SGD loop consumes them in
// the order sent. The RNG call sequence is the one a single loop makes,
// because nothing else draws from it once the stream starts (an SGD step and
// the per-epoch renormalization draw no random numbers) and corrupt reads
// the graph only, never the model the SGD loop writes.
type sampleStream struct {
	full chan []sample // filled chunks, in order
	free chan []sample // chunks the consumer is done with
	stop chan struct{} // closed by close
	done chan struct{} // closed when the producer has returned
}

// startSampleStream starts the producer for cfg.Epochs epochs over order.
func startSampleStream(g *kg.Graph, cfg Config, rng *rand.Rand, headProb []float64, order []int) *sampleStream {
	s := &sampleStream{
		// Both channels hold every chunk, so a send on either never blocks.
		full: make(chan []sample, streamDepth),
		free: make(chan []sample, streamDepth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := 0; i < streamDepth; i++ {
		s.free <- make([]sample, 0, sampleChunk)
	}
	go s.produce(g, cfg, rng, headProb, order)
	return s
}

func (s *sampleStream) produce(g *kg.Graph, cfg Config, rng *rand.Rand, headProb []float64, order []int) {
	defer close(s.done)
	triples, nE := g.Triples(), g.NumEntities()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for lo := 0; lo < len(order); lo += sampleChunk {
			var buf []sample
			select {
			case buf = <-s.free:
			case <-s.stop:
				return
			}
			buf = buf[:0]
			for _, ti := range order[lo:min(lo+sampleChunk, len(order))] {
				tr := triples[ti]
				neg := corrupt(g, rng, tr, nE, corruptProb(cfg, headProb, tr.R, rng))
				buf = append(buf, sample{tr, neg})
			}
			s.full <- buf
		}
	}
}

// epoch runs the SGD steps of the next n samples, one epoch, and returns
// their summed loss. Chunks never span two epochs.
func (s *sampleStream) epoch(m *Model, cfg Config, n int, grad []float64) float64 {
	var sum float64
	for n > 0 {
		buf := <-s.full
		for i := range buf {
			sum += m.sgdStep(buf[i].pos, buf[i].neg, cfg, grad)
		}
		n -= len(buf)
		s.free <- buf
	}
	return sum
}

// close stops the producer and returns once it has exited.
func (s *sampleStream) close() {
	close(s.stop)
	<-s.done
}

func corruptProb(cfg Config, headProb []float64, r kg.RelationID, rng *rand.Rand) float64 {
	if cfg.Sampling == Bernoulli {
		return headProb[r]
	}
	return 0.5
}

// corrupt samples a corrupted sibling of tr that is not a known edge.
func corrupt(g *kg.Graph, rng *rand.Rand, tr kg.Triple, nE int, headProb float64) kg.Triple {
	corruptHead := rng.Float64() < headProb
	var neg kg.Triple
	for tries := 0; ; tries++ {
		cand := kg.EntityID(rng.Intn(nE))
		if corruptHead {
			neg = kg.Triple{H: cand, R: tr.R, T: tr.T}
		} else {
			neg = kg.Triple{H: tr.H, R: tr.R, T: cand}
		}
		if !g.HasEdge(neg.H, neg.R, neg.T) || tries > 16 {
			return neg
		}
	}
}

// trainEpochParallel runs one SGD epoch with lock-free parallel updates
// (Hogwild: Recht et al., 2011). Each worker owns a shard of the shuffled
// order and its own RNG; vector updates race benignly.
func trainEpochParallel(g *kg.Graph, m *Model, cfg Config, corruptHeadProb []float64, triples []kg.Triple, order []int, epoch int64) float64 {
	nE := g.NumEntities()
	workers := cfg.Workers
	shard := (len(order) + workers - 1) / workers
	lossCh := make(chan float64, workers)
	for w := 0; w < workers; w++ {
		lo := w * shard
		hi := lo + shard
		if hi > len(order) {
			hi = len(order)
		}
		go func(w int, part []int) {
			rng := rand.New(rand.NewSource(cfg.Seed ^ (epoch+1)*7919 ^ int64(w)*104729))
			grad := make([]float64, cfg.Dim)
			var sum float64
			for _, ti := range part {
				tr := triples[ti]
				neg := corrupt(g, rng, tr, nE, corruptProb(cfg, corruptHeadProb, tr.R, rng))
				sum += m.sgdStep(tr, neg, cfg, grad)
			}
			lossCh <- sum
		}(w, order[lo:hi])
	}
	var total float64
	for w := 0; w < workers; w++ {
		total += <-lossCh
	}
	return total
}

// sgdStep applies one margin-ranking update for (pos, neg) and returns the
// hinge loss before the update. grad is scratch space of length Dim.
//
// The training dissimilarity is squared L2 (the smooth surrogate) or L1 of
// the residual a = h + r - t; its gradient w.r.t. h is 2a or sign(a). The
// hinge gradient applies when the margin is violated; the PositivePull term
// applies always. The step makes three passes over the rows:
//
//  1. Both dissimilarities and the positive gradient, every row read before
//     any is written.
//  2. Descend d(pos).
//  3. Ascend d(neg), its residual taken after pass two: the relation row and
//     one entity row are shared with pos. Element i of the residual reads
//     only element i of each row, so it is taken and applied in one loop.
func (m *Model) sgdStep(pos, neg kg.Triple, cfg Config, grad []float64) float64 {
	l1 := m.NormUsed == L1
	hp, rp, tp := m.EntityVec(pos.H), m.RelVec(pos.R), m.EntityVec(pos.T)
	hn, rn, tn := m.EntityVec(neg.H), m.RelVec(neg.R), m.EntityVec(neg.T)
	// Resliced to len(grad), the rows let the compiler prove every index
	// below in bounds, so the loops run without bounds checks.
	n := len(grad)
	hp, rp, tp, hn, rn, tn = hp[:n], rp[:n], tp[:n], hn[:n], rn[:n], tn[:n]

	var dPos, dNeg float64
	for i := range grad {
		a := hp[i] + rp[i] - tp[i]
		b := hn[i] + rn[i] - tn[i]
		if l1 {
			dPos += math.Abs(a)
			dNeg += math.Abs(b)
			grad[i] = sign(a)
		} else {
			dPos += a * a
			dNeg += b * b
			grad[i] = 2 * a
		}
	}
	loss := cfg.Margin + dPos - dNeg
	lr := cfg.LearningRate

	posScale := cfg.PositivePull
	if loss > 0 {
		posScale += 1
	}
	if posScale > 0 {
		for i := range grad {
			step := lr * posScale * grad[i]
			hp[i] -= step
			rp[i] -= step
			tp[i] += step
		}
	}
	if loss <= 0 {
		return 0
	}

	for i := range grad {
		b := hn[i] + rn[i] - tn[i]
		var gb float64
		if l1 {
			gb = sign(b)
		} else {
			gb = 2 * b
		}
		step := lr * gb
		hn[i] += step
		rn[i] += step
		tn[i] -= step
	}
	return loss
}

// sign returns 1, -1 or 0 by the sign of x (0 for NaN).
func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

func normalizeRow(v []float64) {
	var s float64
	for _, x := range v {
		s += x * x
	}
	if s == 0 {
		return
	}
	inv := 1 / math.Sqrt(s)
	for i := range v {
		v[i] *= inv
	}
}

// bernoulliProbs computes, per relation, the probability of corrupting the
// head: tph / (tph + hpt), where tph is the mean number of tails per head
// and hpt the mean number of heads per tail.
func bernoulliProbs(g *kg.Graph) []float64 {
	headsPerRel := make([]map[kg.EntityID]int, g.NumRelations())
	tailsPerRel := make([]map[kg.EntityID]int, g.NumRelations())
	for i := range headsPerRel {
		headsPerRel[i] = make(map[kg.EntityID]int)
		tailsPerRel[i] = make(map[kg.EntityID]int)
	}
	for _, t := range g.Triples() {
		headsPerRel[t.R][t.H]++
		tailsPerRel[t.R][t.T]++
	}
	probs := make([]float64, g.NumRelations())
	for r := range probs {
		nh, nt := len(headsPerRel[r]), len(tailsPerRel[r])
		if nh == 0 || nt == 0 {
			probs[r] = 0.5
			continue
		}
		var edges int
		for _, c := range headsPerRel[r] {
			edges += c
		}
		tph := float64(edges) / float64(nh)
		hpt := float64(edges) / float64(nt)
		probs[r] = tph / (tph + hpt)
	}
	return probs
}

// A model file is a snapfmt container of its own (magic "VKGMODEL",
// version modelVersion) with one section holding Encode's payload, so a
// file in any other format is refused with a typed error.
const (
	modelMagic   = "VKGMODEL"
	modelVersion = 1
	secModelFile = 1
)

// Encode writes the model's payload to w:
//
//	dim u32 | norm u8 | entity rows (float64s) | relation rows (float64s)
func (m *Model) Encode(w *snapfmt.Writer) {
	w.Grow(8*(len(m.Entities)+len(m.Rels)) + 13)
	w.U32(uint32(m.Dim))
	w.U8(uint8(m.NormUsed))
	w.F64s(m.Entities)
	w.F64s(m.Rels)
}

// Decode reads a payload written by Encode. Any failure wraps
// snapfmt.ErrCorrupt.
func Decode(b []byte) (*Model, error) {
	r := snapfmt.NewReader(b)
	m := &Model{Dim: int(r.U32()), NormUsed: Norm(r.U8())}
	if m.Dim <= 0 || m.NormUsed > L1 {
		r.Fail("dimension %d, norm %d", m.Dim, m.NormUsed)
	}
	m.Entities = r.F64s()
	m.Rels = r.F64s()
	if r.Err() == nil && (len(m.Entities)%m.Dim != 0 || len(m.Rels)%m.Dim != 0) {
		r.Fail("%d entity and %d relation values in rows of %d", len(m.Entities), len(m.Rels), m.Dim)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("embedding: decode model: %w", err)
	}
	return m, nil
}

// Save writes the model to w as a model file.
func (m *Model) Save(w io.Writer) error {
	var p snapfmt.Writer
	m.Encode(&p)
	return snapfmt.WriteOne(w, modelMagic, modelVersion, secModelFile, p.Bytes())
}

// Load reads a model file written by Save. A stream that is not one fails
// with an error wrapping snapfmt.ErrCorrupt, a model file of another
// version with one wrapping snapfmt.ErrVersion.
func Load(r io.Reader) (*Model, error) {
	payload, err := snapfmt.ReadOne(r, modelMagic, modelVersion, secModelFile)
	if err != nil {
		return nil, fmt.Errorf("embedding: %w", err)
	}
	return Decode(payload)
}

// SaveFile writes the model to path atomically (temp file + rename): a
// crash mid-save leaves any previous file at path untouched.
func (m *Model) SaveFile(path string) error {
	return atomicfile.WriteFile(path, m.Save)
}

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
