package main

import (
	"encoding/binary"
	"encoding/json"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"vkgraph/internal/kg/kggen"
)

// hashOps folds a sequence into h; the generator tests compare these.
func hashOps(h hash.Hash64, ops []op) {
	var buf [26]byte
	for _, o := range ops {
		buf[0] = byte(o.Kind)
		buf[1] = 0
		if o.Heads {
			buf[1] = 1
		}
		binary.LittleEndian.PutUint32(buf[2:], uint32(o.Entity))
		binary.LittleEndian.PutUint32(buf[6:], uint32(o.Rel))
		binary.LittleEndian.PutUint32(buf[10:], uint32(o.Other))
		binary.LittleEndian.PutUint64(buf[14:], math.Float64bits(o.Value))
		binary.LittleEndian.PutUint32(buf[22:], uint32(o.N))
		h.Write(buf[:])
	}
}

func (s sequence) hashInto(h hash.Hash64) {
	for _, part := range [][][]op{s.Warm, s.Measured} {
		for _, ops := range part {
			hashOps(h, ops)
		}
	}
}

// hashSynth folds everything genSynth produces into one value: the
// embedding, the edges as the graph answers for them, and the attribute
// through an aggregate-free route (names and the triple count).
func hashSynth(t *testing.T, seed int64) uint64 {
	t.Helper()
	cfg := sizesFor(runConfig{Short: true}).synth
	sg, err := genSynth(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, x := range sg.Model.Entities {
		put(math.Float64bits(x))
	}
	for _, x := range sg.Model.Rels {
		put(math.Float64bits(x))
	}
	put(uint64(sg.G.NumEntities()))
	put(uint64(sg.G.NumTriples()))
	for u := 0; u < sg.Users; u++ {
		for i := sg.Users; i < sg.Users+sg.Items; i += 97 {
			if sg.G.HasEdge(int32(u), sg.Likes, int32(i)) {
				put(uint64(u)<<32 | uint64(i))
			}
		}
	}
	return h.Sum64()
}

func TestSynthGeneratorFollowsSeed(t *testing.T) {
	a, b, c := hashSynth(t, 11), hashSynth(t, 11), hashSynth(t, 12)
	if a != b {
		t.Errorf("equal seeds gave different graphs: %x and %x", a, b)
	}
	if a == c {
		t.Errorf("different seeds gave the same graph: %x", a)
	}
}

// sequenceHashes returns one hash per workload for a seed, over the
// workload's whole operation sequence and its probes.
func sequenceHashes(t *testing.T, seed int64) map[string]uint64 {
	t.Helper()
	cfg := runConfig{Seed: seed, Seconds: 1, Short: true}
	sz := sizesFor(cfg)
	sg, err := genSynth(sz.synth, datasetSeed)
	if err != nil {
		t.Fatal(err)
	}
	// The sequences read the graph, not the embedding: no training needed.
	mg := &movieGraph{cfg: sz.movie, KG: kggen.Movie(sz.movie)}

	out := map[string]uint64{}
	for _, spec := range []struct {
		steadySpec
		g benchGraph
	}{{topkLarge(cfg, sz), sg}, {httpMixed(cfg, sz), mg}, {updateWAL(cfg, sz), mg}} {
		seq, pr, err := spec.sequence(spec.g, clients)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		seq.hashInto(h)
		hashOps(h, pr.precision)
		hashOps(h, pr.agg)
		hashOps(h, pr.answers)
		out[spec.name] = h.Sum64()
	}
	h := fnv.New64a()
	hashOps(h, coldQueries(cfg, sz, sg))
	out[wlColdCrack] = h.Sum64()
	return out
}

func TestSequencesFollowSeed(t *testing.T) {
	a, b, c := sequenceHashes(t, 21), sequenceHashes(t, 21), sequenceHashes(t, 22)
	for _, name := range workloadNames {
		if a[name] != b[name] {
			t.Errorf("%s: equal seeds gave different sequences", name)
		}
		if a[name] == c[name] {
			t.Errorf("%s: different seeds gave the same sequence", name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's own
// metric and workload tables from drifting apart.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		if got := (metricDef{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the program", i, got, endToEnd[i])
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if got := (metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}); got != perLayer[i] {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the program", i, got, perLayer[i])
		}
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d in BENCHMARK.json, the -seconds default is %d", doc.RunSeconds, defaultSeconds)
	}
}
