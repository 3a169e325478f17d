package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg/kggen"
	"vkgraph/internal/snapfmt"
)

// TestPackedMatchesUnpacked is the packed-storage contract, the memory-
// layout sibling of TestShardedMatchesUnsharded: the float32 mirror is a
// conservative prefilter whose survivors are re-ranked in exact float64,
// so enabling it must not change a single bit of any answer. Both engines
// share one trained model and identical index parameters — the only
// difference is PackedCoords — so here even the contour-statistics-derived
// fields (VM, the MAX/MIN element bounds) must match exactly, not just the
// ball-derived ones.
func TestPackedMatchesUnpacked(t *testing.T) {
	g := kggen.Movie(kggen.TinyMovieConfig())
	cfg := embedding.DefaultConfig()
	cfg.Epochs = 12
	tr, err := embedding.Train(g, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	newEng := func(packed bool) *Engine {
		p := defaultTestParams()
		p.Shards = 2
		p.PackedCoords = packed
		eng, err := NewEngine(g, tr.Model, Crack, p)
		if err != nil {
			t.Fatalf("NewEngine(packed=%v): %v", packed, err)
		}
		return eng
	}
	packed := newEng(true)
	plain := newEng(false)
	if packed.PackedBytes() == 0 {
		t.Fatal("packed engine reports zero PackedBytes")
	}
	if plain.PackedBytes() != 0 {
		t.Fatalf("unpacked engine reports PackedBytes %d", plain.PackedBytes())
	}

	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	movies := g.EntitiesOfType("movie")

	for _, u := range users[:30] {
		a, err := packed.TopKTails(u, likes, 10)
		if err != nil {
			t.Fatalf("packed TopKTails(%d): %v", u, err)
		}
		b, err := plain.TopKTails(u, likes, 10)
		if err != nil {
			t.Fatalf("unpacked TopKTails(%d): %v", u, err)
		}
		if !reflect.DeepEqual(a.Predictions, b.Predictions) {
			t.Fatalf("user %d: top-k diverges:\npacked   %v\nunpacked %v", u, a.Predictions, b.Predictions)
		}
	}
	for _, m := range movies[:10] {
		a, err := packed.TopKHeads(m, likes, 5)
		if err != nil {
			t.Fatalf("packed TopKHeads(%d): %v", m, err)
		}
		b, err := plain.TopKHeads(m, likes, 5)
		if err != nil {
			t.Fatalf("unpacked TopKHeads(%d): %v", m, err)
		}
		if !reflect.DeepEqual(a.Predictions, b.Predictions) {
			t.Fatalf("movie %d: top-k heads diverge", m)
		}
	}

	aggs := []AggQuery{
		{Kind: Count},
		{Kind: Sum, Attr: "year"},
		{Kind: Avg, Attr: "year"},
		{Kind: Avg, Attr: "year", MaxAccess: 5},
		{Kind: Max, Attr: "year"},
		{Kind: Min, Attr: "year"},
	}
	for _, u := range users[:10] {
		for _, q := range aggs {
			a, err := packed.AggregateTails(u, likes, q)
			if err != nil {
				t.Fatalf("packed %v: %v", q.Kind, err)
			}
			b, err := plain.AggregateTails(u, likes, q)
			if err != nil {
				t.Fatalf("unpacked %v: %v", q.Kind, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("user %d %v %q: results diverge:\npacked   %+v\nunpacked %+v", u, q.Kind, q.Attr, a, b)
			}
		}
	}

	if err := packed.CheckInvariants(); err != nil {
		t.Fatalf("packed invariants: %v", err)
	}
	if err := plain.CheckInvariants(); err != nil {
		t.Fatalf("unpacked invariants: %v", err)
	}

	// Both engines cracked identically; the structural stats must agree
	// (the arena and packed-mirror gauges are layout-side and may differ).
	ps, us := packed.IndexStats(), plain.IndexStats()
	if ps.TotalNodes != us.TotalNodes || ps.BinarySplits != us.BinarySplits || ps.Height != us.Height {
		t.Fatalf("index shapes diverge: packed %+v, unpacked %+v", ps, us)
	}
}

// TestOldSnapshotVersionsRejected forges version-1 and version-2 headers on
// an otherwise valid snapshot: the retired formats must be refused with the
// typed version error, never misread as version 3.
func TestOldSnapshotVersionsRejected(t *testing.T) {
	eng, _ := testEngine(t, Crack, defaultTestParams())
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint16{1, 2} {
		snap := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint16(snap[snapfmt.MagicLen:], version)
		if _, err := LoadEngine(bytes.NewReader(snap)); !errors.Is(err, snapfmt.ErrVersion) {
			t.Fatalf("LoadEngine of a version-%d header = %v, want ErrVersion", version, err)
		}
	}
}

// TestSnapshotV3CarriesPacked: a packed engine's snapshot must come back
// packed (the flag rides in Params; the mirror is rebuilt on load).
func TestSnapshotV3CarriesPacked(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	if eng.PackedBytes() == 0 {
		t.Fatal("default engine is not packed")
	}
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	if _, err := eng.TopKTails(users[0], likes, 5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.PackedBytes() != eng.PackedBytes() {
		t.Fatalf("loaded engine PackedBytes %d, want %d", loaded.PackedBytes(), eng.PackedBytes())
	}
	a, _ := eng.TopKTails(users[0], likes, 5)
	b, err := loaded.TopKTails(users[0], likes, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Predictions, b.Predictions) {
		t.Fatal("packed round trip changed answers")
	}
}
