package embedding

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"vkgraph/internal/kg"
	"vkgraph/internal/kg/kggen"
	"vkgraph/internal/snapfmt"
)

// refTrain is the deterministic trainer as it was before the sample stream
// and the fused SGD step: one loop that shuffles, corrupts and steps in turn.
// It and the three functions below are kept verbatim (methods turned into
// functions of the model, and the per-epoch renormalization unconditional,
// as its switch is gone) as the reference Train must equal bit for bit.
func refTrain(g *kg.Graph, cfg Config) *TrainResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	nE, nR, d := g.NumEntities(), g.NumRelations(), cfg.Dim
	m := &Model{
		Dim:      d,
		Entities: make([]float64, nE*d),
		Rels:     make([]float64, nR*d),
		NormUsed: cfg.Norm,
	}

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

	corruptHeadProb := bernoulliProbs(g)

	triples := g.Triples()
	order := make([]int, len(triples))
	for i := range order {
		order[i] = i
	}

	grad := make([]float64, d)
	losses := make([]float64, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for e := 0; e < nE; e++ {
			normalizeRow(m.Entities[e*d : (e+1)*d])
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

		var lossSum float64
		for _, ti := range order {
			tr := triples[ti]
			neg := corrupt(g, rng, tr, nE, corruptProb(cfg, corruptHeadProb, tr.R, rng))
			lossSum += refSGDStep(m, tr, neg, cfg, grad)
		}
		losses = append(losses, lossSum/float64(len(order)))
	}
	for e := 0; e < nE; e++ {
		normalizeRow(m.Entities[e*d : (e+1)*d])
	}
	return &TrainResult{Model: m, EpochLosses: losses}
}

func refSGDStep(m *Model, pos, neg kg.Triple, cfg Config, grad []float64) float64 {
	d := m.Dim
	dPos := refTrainDissim(m, pos)
	dNeg := refTrainDissim(m, neg)
	loss := cfg.Margin + dPos - dNeg
	lr := cfg.LearningRate

	posScale := cfg.PositivePull
	if loss > 0 {
		posScale += 1
	}
	if posScale > 0 {
		hv, rv, tv := m.EntityVec(pos.H), m.RelVec(pos.R), m.EntityVec(pos.T)
		refResidualGrad(m, grad, hv, rv, tv)
		for i := 0; i < d; i++ {
			step := lr * posScale * grad[i]
			hv[i] -= step
			rv[i] -= step
			tv[i] += step
		}
	}
	if loss <= 0 {
		return 0
	}

	hv, rv, tv := m.EntityVec(neg.H), m.RelVec(neg.R), m.EntityVec(neg.T)
	refResidualGrad(m, grad, hv, rv, tv)
	for i := 0; i < d; i++ {
		step := lr * grad[i]
		hv[i] += step
		rv[i] += step
		tv[i] -= step
	}
	return loss
}

func refTrainDissim(m *Model, t kg.Triple) float64 {
	hv, rv, tv := m.EntityVec(t.H), m.RelVec(t.R), m.EntityVec(t.T)
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
	return s
}

func refResidualGrad(m *Model, grad, hv, rv, tv []float64) {
	if m.NormUsed == L1 {
		for i := range grad {
			r := hv[i] + rv[i] - tv[i]
			switch {
			case r > 0:
				grad[i] = 1
			case r < 0:
				grad[i] = -1
			default:
				grad[i] = 0
			}
		}
		return
	}
	for i := range grad {
		grad[i] = 2 * (hv[i] + rv[i] - tv[i])
	}
}

// multiChunkGraph has 11,496 triples: each epoch streams two full chunks
// and a partial one.
func multiChunkGraph() *kg.Graph {
	return kggen.Movie(kggen.MovieConfig{
		Users: 400, Movies: 800, Genres: 10, Tags: 60,
		Ratings: 20000, MicroSize: 12, Prefs: 2, Affinity: 0.85, Seed: 7,
	})
}

// modelDigest is the SHA-256 of the model's encoded payload.
func modelDigest(m *Model) string {
	var w snapfmt.Writer
	m.Encode(&w)
	return fmt.Sprintf("%x", sha256.Sum256(w.Bytes()))
}

// TestTrainMatchesSerialReference holds the deterministic trainer to the
// serial loop it replaced: the same entity rows, relation rows and epoch
// losses, bit for bit, under every norm, sampling strategy and pull. One
// model is also pinned to its digest under the serial loop, so a change to
// the reference, to corrupt or to the RNG's use shows too. The sample
// stream's goroutine must be gone once Train returns.
func TestTrainMatchesSerialReference(t *testing.T) {
	g := multiChunkGraph()
	if n := g.NumTriples(); n <= 2*sampleChunk || n%sampleChunk == 0 {
		t.Fatalf("%d triples do not make two full chunks and a partial one", n)
	}
	type variant struct {
		name string
		edit func(*Config)
	}
	var variants []variant
	normNames := map[Norm]string{L2: "L2", L1: "L1"}
	samplingNames := map[Sampling]string{Bernoulli: "Bernoulli", Uniform: "Uniform"}
	for _, norm := range []Norm{L2, L1} {
		for _, sampling := range []Sampling{Bernoulli, Uniform} {
			for _, pull := range []float64{0, 0.5} {
				norm, sampling, pull := norm, sampling, pull
				variants = append(variants, variant{
					fmt.Sprintf("%s/%s/pull%g", normNames[norm], samplingNames[sampling], pull),
					func(c *Config) { c.Norm, c.Sampling, c.PositivePull = norm, sampling, pull },
				})
			}
		}
	}
	pinned := map[string]string{
		"L2/Bernoulli/pull0.5": "8abca4629e8ee5237230f9a3257259d0be211a6a5867801136e899e9aaf24302",
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := fastConfig()
			v.edit(&cfg)
			want := refTrain(g, cfg)
			base := runtime.NumGoroutine()
			got, err := Train(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base)
			sameBits(t, "entity", got.Model.Entities, want.Model.Entities)
			sameBits(t, "relation", got.Model.Rels, want.Model.Rels)
			sameBits(t, "epoch loss", got.EpochLosses, want.EpochLosses)
			if digest, ok := pinned[v.name]; ok {
				if d := modelDigest(got.Model); d != digest {
					t.Fatalf("model digest %s, want %s", d, digest)
				}
			}
		})
	}
}

// waitGoroutines fails unless the goroutine count falls back to base within
// a second: a goroutine that has closed its done channel may still be
// running its last instructions when the waiter wakes.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Train, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d %s values, want %d", len(got), what, len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s value %d: %v, want %v", what, i, got[i], want[i])
		}
	}
}
