package core

import (
	"bytes"
	"errors"
	"testing"

	"vkgraph/internal/snapfmt"
)

// Regression: InsertEntity (and SetAttr) with an attribute name outside
// Params.Attrs used to leave the column unregistered with the point set —
// RefreshAttr silently no-opped on the unknown name — so the value was
// stored in the graph but invisible to every aggregate. The write path now
// registers on miss.
func TestDynamicAttrAggregatesLive(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	u := g.EntitiesOfType("user")[0]

	res, err := eng.TopK(DirTail, u, likes, 5)
	if err != nil {
		t.Fatal(err)
	}
	top := res.Predictions[0].Entity

	// Before any write, the attribute is genuinely unknown.
	if _, err := eng.Aggregate(DirTail, u, likes, AggQuery{Kind: Max, Attr: "rating"}); !errors.Is(err, ErrUnknownAttribute) {
		t.Fatalf("aggregate over never-written attr: %v, want ErrUnknownAttribute", err)
	}

	// SetAttr on a brand-new name must create AND register the column.
	if err := eng.SetAttr("rating", top, 9.5); err != nil {
		t.Fatalf("SetAttr: %v", err)
	}
	agg, err := eng.Aggregate(DirTail, u, likes, AggQuery{Kind: Max, Attr: "rating"})
	if err != nil {
		t.Fatalf("aggregate over dynamic attr: %v", err)
	}
	if agg.Value != 9.5 {
		t.Fatalf("MAX rating %v, want 9.5 (the one value written)", agg.Value)
	}

	// InsertEntity with a dynamic attr takes the same path.
	users := g.EntitiesOfType("user")
	if _, err := eng.InsertEntity("indie-movie", "movie", []Fact{
		{Rel: likes, Other: users[1]},
		{Rel: likes, Other: users[2]},
	}, map[string]float64{"budget": 1e6}); err != nil {
		t.Fatalf("InsertEntity: %v", err)
	}
	if _, err := eng.Aggregate(DirTail, u, likes, AggQuery{Kind: Max, Attr: "budget"}); err != nil {
		t.Fatalf("aggregate over insert-created attr: %v", err)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Regression: LoadEngine re-registered only Params.Attrs, so dynamically
// added attributes vanished after a save/load round-trip. The snapshot now
// carries the effective attribute list.
func TestDynamicAttrSurvivesRoundTrip(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	u := g.EntitiesOfType("user")[0]
	res, err := eng.TopK(DirTail, u, likes, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetAttr("rating", res.Predictions[0].Entity, 8.25); err != nil {
		t.Fatal(err)
	}
	want, err := eng.Aggregate(DirTail, u, likes, AggQuery{Kind: Max, Attr: "rating"})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := got.Aggregate(DirTail, u, likes, AggQuery{Kind: Max, Attr: "rating"})
	if err != nil {
		t.Fatalf("dynamic attr lost in round-trip: %v", err)
	}
	if agg.Value != want.Value {
		t.Fatalf("MAX rating %v after round-trip, want %v", agg.Value, want.Value)
	}
	if len(got.DroppedAttrs()) != 0 {
		t.Fatalf("clean round-trip dropped attrs: %v", got.DroppedAttrs())
	}
}

// rewriteMetaAttrs re-encodes a snapshot with extra names appended to its
// effective attribute list, simulating a snapshot whose graph section lost
// (or never had) a column the meta section promises.
func rewriteMetaAttrs(t *testing.T, snap []byte, extra ...string) []byte {
	t.Helper()
	start, n := sectionSpan(t, snap, secMeta)
	meta, err := decodeMeta(snap[start : start+n])
	if err != nil {
		t.Fatal(err)
	}
	meta.EffAttrs = append(meta.EffAttrs, extra...)
	var w snapfmt.Writer
	meta.encode(&w)
	return replaceSection(t, snap, secMeta, w.Bytes())
}

// Regression: an attribute named by the snapshot meta but missing from the
// loaded graph used to hard-fail the whole load. It now degrades — the
// phantom column is dropped, the drop is visible in DroppedAttrs and on
// /metrics, and everything else serves.
func TestLoadEngineDropsMissingAttr(t *testing.T) {
	eng, snap := savedEngine(t, Crack)
	bad := rewriteMetaAttrs(t, snap, "ghost")

	got, err := LoadEngine(bytes.NewReader(bad))
	if err != nil {
		t.Fatalf("load hard-failed on a missing attr: %v", err)
	}
	dropped := got.DroppedAttrs()
	if len(dropped) != 1 || dropped[0] != "ghost" {
		t.Fatalf("dropped attrs %v, want [ghost]", dropped)
	}

	// The real attributes still aggregate; the phantom errors per-query.
	want, err := eng.TopK(DirTail, 1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := got.TopK(DirTail, 1, 0, 3)
	if err != nil {
		t.Fatalf("query on degraded engine: %v", err)
	}
	for i := range want.Predictions {
		if res.Predictions[i].Entity != want.Predictions[i].Entity {
			t.Fatalf("answers diverged: %v vs %v", res.Predictions, want.Predictions)
		}
	}
	if _, err := got.Aggregate(DirTail, 1, 0, AggQuery{Kind: Max, Attr: "year"}); err != nil {
		t.Fatalf("real attr broken on degraded engine: %v", err)
	}
	if _, err := got.Aggregate(DirTail, 1, 0, AggQuery{Kind: Max, Attr: "ghost"}); !errors.Is(err, ErrUnknownAttribute) {
		t.Fatalf("phantom attr: %v, want ErrUnknownAttribute", err)
	}
}
