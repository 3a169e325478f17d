package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vkgraph/internal/faultio"
	"vkgraph/internal/kg"
	"vkgraph/internal/snapfmt"
	"vkgraph/internal/walfmt"
)

// walTestEngine builds a warmed engine with a WAL anchored at a snapshot in
// a fresh temp dir, returning the engine, its graph, and the snapshot path
// (the log is beside it at <path>.wal).
func walTestEngine(t *testing.T) (*Engine, *kg.Graph, string) {
	t.Helper()
	eng, g := testEngine(t, Crack, defaultTestParams())
	snap := filepath.Join(t.TempDir(), "eng.vkg")
	if err := eng.EnableWAL(snap, WALOptions{Sync: WALSyncOff}); err != nil {
		t.Fatalf("EnableWAL: %v", err)
	}
	return eng, g, snap
}

// mutateEngine drives a representative mix of WAL-logged work: queries that
// crack the index, a recorded fact, an entity insert carrying a dynamic
// (non-Params) attribute, and attribute writes on existing entities.
func mutateEngine(t *testing.T, eng *Engine, g *kg.Graph) {
	t.Helper()
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	for _, u := range users[:8] {
		if _, err := eng.TopK(DirTail, u, likes, 5); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.TopK(DirTail, users[0], likes, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFact(users[0], likes, res.Predictions[0].Entity); err != nil {
		t.Fatalf("AddFact: %v", err)
	}
	if _, err := eng.InsertEntity("wal-movie", "movie", []Fact{
		{Rel: likes, Other: users[1]},
		{Rel: likes, Other: users[2]},
	}, map[string]float64{"rating": 4.5, "year": 2025}); err != nil {
		t.Fatalf("InsertEntity: %v", err)
	}
	if err := eng.SetAttr("rating", res.Predictions[1].Entity, 9.5); err != nil {
		t.Fatalf("SetAttr: %v", err)
	}
	for _, u := range users[8:12] {
		if _, err := eng.TopK(DirTail, u, likes, 5); err != nil {
			t.Fatal(err)
		}
	}
}

// The central WAL contract: an engine loaded from snapshot+log is
// structurally identical — byte-identical trees, same registered attribute
// columns — to the live engine at its last append, without any intervening
// save.
func TestWALReplayStructureHash(t *testing.T) {
	eng, g, snap := walTestEngine(t)
	mutateEngine(t, eng, g)

	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	liveAgg, err := eng.Aggregate(DirTail, users[0], likes, AggQuery{Kind: Max, Attr: "rating"})
	if err != nil {
		t.Fatalf("live aggregate over dynamic attr: %v", err)
	}
	liveTop, err := eng.TopK(DirTail, users[3], likes, 5)
	if err != nil {
		t.Fatal(err)
	}
	liveHash := eng.StructureHash()
	live := eng.WALStats()
	if live.AppendedRecords == 0 {
		t.Fatal("no WAL records appended by mutations")
	}
	if err := eng.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}

	got, err := LoadEngineFileWAL(snap, WALOptions{Sync: WALSyncOff})
	if err != nil {
		t.Fatalf("LoadEngineFileWAL: %v", err)
	}
	defer got.CloseWAL()
	rs := got.WALStats()
	if rs.ReplayedRecords != live.AppendedRecords {
		t.Fatalf("replayed %d records, live appended %d", rs.ReplayedRecords, live.AppendedRecords)
	}
	if rs.ReplayTruncations != 0 || rs.ReplayStale != 0 || rs.ReplayDroppedBytes != 0 {
		t.Fatalf("clean log reported damage: %+v", rs)
	}
	if gotHash := got.StructureHash(); gotHash != liveHash {
		t.Fatalf("structure hash diverged: live %x, replayed %x", liveHash, gotHash)
	}

	gotAgg, err := got.Aggregate(DirTail, users[0], likes, AggQuery{Kind: Max, Attr: "rating"})
	if err != nil {
		t.Fatalf("replayed aggregate over dynamic attr: %v", err)
	}
	if gotAgg.Value != liveAgg.Value {
		t.Fatalf("dynamic-attr aggregate diverged: live %v, replayed %v", liveAgg.Value, gotAgg.Value)
	}
	gotTop, err := got.TopK(DirTail, users[3], likes, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range liveTop.Predictions {
		if gotTop.Predictions[i].Entity != liveTop.Predictions[i].Entity {
			t.Fatalf("answers diverged: %v vs %v", gotTop.Predictions, liveTop.Predictions)
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("invariants after replay: %v", err)
	}
}

// A WAL-armed SaveFile rotates the log: records before the save live in the
// snapshot, records after it in the fresh log, and a reload applies each
// exactly once.
func TestWALRotationNoDoubleApply(t *testing.T) {
	eng, g, snap := walTestEngine(t)
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")

	mutateEngine(t, eng, g)
	beforeRotate := eng.WALStats()
	if err := eng.SaveFile(snap); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	after := eng.WALStats()
	if after.Rotations != beforeRotate.Rotations+1 {
		t.Fatalf("rotations %d after save, want %d", after.Rotations, beforeRotate.Rotations+1)
	}
	if after.Generation != beforeRotate.Generation+1 {
		t.Fatalf("generation %d after save, want %d", after.Generation, beforeRotate.Generation+1)
	}

	// Post-rotation work: only this suffix may replay.
	for _, u := range users[12:16] {
		if _, err := eng.TopK(DirTail, u, likes, 5); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.TopK(DirTail, users[12], likes, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFact(users[12], likes, res.Predictions[0].Entity); err != nil {
		t.Fatal(err)
	}
	suffix := eng.WALStats().AppendedRecords - after.AppendedRecords
	liveHash := eng.StructureHash()
	liveTriples := g.NumTriples()
	if err := eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	got, err := LoadEngineFileWAL(snap, WALOptions{Sync: WALSyncOff})
	if err != nil {
		t.Fatalf("LoadEngineFileWAL: %v", err)
	}
	defer got.CloseWAL()
	rs := got.WALStats()
	if rs.ReplayedRecords != suffix {
		t.Fatalf("replayed %d records, want the %d appended after rotation", rs.ReplayedRecords, suffix)
	}
	if got.Graph().NumTriples() != liveTriples {
		t.Fatalf("triples %d after reload, want %d (double apply?)", got.Graph().NumTriples(), liveTriples)
	}
	if h := got.StructureHash(); h != liveHash {
		t.Fatalf("structure hash diverged after rotation: live %x, replayed %x", liveHash, h)
	}
}

// The recovery matrix: every way the crash can leave the snapshot+log pair,
// the load must come up serving — replaying the trustworthy prefix and
// reporting what it dropped, never failing. A pair left by another format
// version is not crash damage: the load refuses it with the typed version
// error and touches neither file.
func TestWALRecoveryMatrix(t *testing.T) {
	eng, g, snap := walTestEngine(t)
	mutateEngine(t, eng, g)
	live := eng.WALStats()
	if err := eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	wal := snap + ".wal"
	walBytes, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	likes, _ := g.RelationByName("likes")
	u := g.EntitiesOfType("user")[0]

	// Each case damages a fresh copy of the pair and asserts on the stats of
	// the resulting load; -1 means "don't check".
	cases := []struct {
		name     string
		damage   func(t *testing.T, wal string)
		replayed int64 // exact replayed records
		torn     uint64
		stale    uint64
		refused  error // the load must fail with this and leave the pair as it was
	}{
		{
			name:     "crash after snapshot, no log",
			damage:   func(t *testing.T, wal string) { os.Remove(wal) },
			replayed: 0,
		},
		{
			name: "torn final record",
			damage: func(t *testing.T, wal string) {
				if err := faultio.TruncateTail(wal, 5); err != nil {
					t.Fatal(err)
				}
			},
			replayed: int64(live.AppendedRecords - 1),
			torn:     1,
		},
		{
			name: "bit flip in an interior record",
			damage: func(t *testing.T, wal string) {
				// Inside the first record's payload: everything from it on is
				// untrustworthy.
				if err := faultio.FlipByte(wal, walfmt.HeaderLen+10, 0x40); err != nil {
					t.Fatal(err)
				}
			},
			replayed: 0,
			torn:     1,
		},
		{
			name: "stale log from a previous generation",
			damage: func(t *testing.T, wal string) {
				f, err := os.Create(wal)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := walfmt.NewWriter(f, 99); err != nil {
					t.Fatal(err)
				}
				f.Close()
			},
			replayed: 0,
			stale:    1,
		},
		{
			name: "snapshot of format version 3",
			damage: func(t *testing.T, wal string) {
				forgeVersion(t, strings.TrimSuffix(wal, ".wal"), 3)
			},
			refused: snapfmt.ErrVersion,
		},
		{
			name: "snapshot of format version 4",
			damage: func(t *testing.T, wal string) {
				forgeVersion(t, strings.TrimSuffix(wal, ".wal"), 4)
			},
			refused: snapfmt.ErrVersion,
		},
		{
			name:    "log of format version 1",
			damage:  func(t *testing.T, wal string) { forgeVersion(t, wal, 1) },
			refused: walfmt.ErrVersion,
		},
		{
			name:    "log of format version 2",
			damage:  func(t *testing.T, wal string) { forgeVersion(t, wal, 2) },
			refused: walfmt.ErrVersion,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s := filepath.Join(dir, "eng.vkg")
			sb, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s, sb, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s+".wal", walBytes, 0o644); err != nil {
				t.Fatal(err)
			}
			c.damage(t, s+".wal")

			got, err := LoadEngineFileWAL(s, WALOptions{Sync: WALSyncOff})
			if c.refused != nil {
				if !errors.Is(err, c.refused) {
					t.Fatalf("load = %v, want %v", err, c.refused)
				}
				for path, want := range map[string][]byte{s: sb, s + ".wal": walBytes} {
					// The forged version is the only difference from the copy.
					forgeVersion(t, path, binary.LittleEndian.Uint16(want[snapfmt.MagicLen:]))
					if now, _ := os.ReadFile(path); !bytes.Equal(now, want) {
						t.Fatalf("the refused load modified %s", filepath.Base(path))
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("load failed instead of degrading: %v", err)
			}
			defer got.CloseWAL()
			rs := got.WALStats()
			if int64(rs.ReplayedRecords) != c.replayed {
				t.Fatalf("replayed %d records, want %d", rs.ReplayedRecords, c.replayed)
			}
			if rs.ReplayTruncations != c.torn {
				t.Fatalf("truncations %d, want %d", rs.ReplayTruncations, c.torn)
			}
			if rs.ReplayStale != c.stale {
				t.Fatalf("stale %d, want %d", rs.ReplayStale, c.stale)
			}
			if c.torn > 0 && rs.ReplayDroppedBytes == 0 {
				t.Fatal("truncated load dropped 0 bytes")
			}

			// The degraded engine serves, keeps its invariants, and keeps
			// logging: the next crash loses nothing new.
			if _, err := got.TopK(DirTail, u, likes, 5); err != nil {
				t.Fatalf("query on recovered engine: %v", err)
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("invariants after recovery: %v", err)
			}
			if got.WALStats().AppendedRecords == rs.AppendedRecords && got.WALStats().AppendErrors > 0 {
				t.Fatal("recovered engine is not logging")
			}
		})
	}
}

// forgeVersion overwrites the format version in a snapshot's or a log's
// header: both put it, little-endian, right after their 8-byte magic.
func forgeVersion(t *testing.T, path string, version uint16) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], version)
	if _, err := f.WriteAt(v[:], snapfmt.MagicLen); err != nil {
		t.Fatal(err)
	}
}

// A snapshot written by a plain Save carries no generation; attaching a WAL
// re-anchors it in place and the log works from then on.
func TestWALPlainSnapshotReanchored(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	snap := filepath.Join(t.TempDir(), "plain.vkg")
	if err := eng.SaveFile(snap); err != nil {
		t.Fatal(err)
	}

	got, err := LoadEngineFileWAL(snap, WALOptions{Sync: WALSyncOff})
	if err != nil {
		t.Fatalf("LoadEngineFileWAL on plain snapshot: %v", err)
	}
	rs := got.WALStats()
	if rs.ReplayedRecords != 0 || rs.Generation == 0 {
		t.Fatalf("re-anchor: %+v", rs)
	}
	if _, err := os.Stat(snap + ".wal"); err != nil {
		t.Fatalf("no log beside re-anchored snapshot: %v", err)
	}

	likes, _ := g.RelationByName("likes")
	for _, u := range g.EntitiesOfType("user")[:6] {
		if _, err := got.TopK(DirTail, u, likes, 5); err != nil {
			t.Fatal(err)
		}
	}
	appended := got.WALStats().AppendedRecords
	if appended == 0 {
		t.Fatal("re-anchored engine is not logging")
	}
	h := got.StructureHash()
	if err := got.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	again, err := LoadEngineFileWAL(snap, WALOptions{Sync: WALSyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer again.CloseWAL()
	if rs := again.WALStats(); rs.ReplayedRecords != appended {
		t.Fatalf("replayed %d, want %d", rs.ReplayedRecords, appended)
	}
	if again.StructureHash() != h {
		t.Fatal("structure hash diverged through re-anchored log")
	}
}

// One failed append disarms logging — a gap would make the suffix lie about
// the engine — and the next rotation re-arms it.
func TestWALAppendErrorSticky(t *testing.T) {
	eng, g, snap := walTestEngine(t)
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	res, err := eng.TopK(DirTail, users[0], likes, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.WALStats()

	eng.wal.mu.Lock()
	eng.wal.err = errors.New("injected append failure")
	eng.wal.mu.Unlock()

	if err := eng.AddFact(users[0], likes, res.Predictions[0].Entity); err != nil {
		t.Fatal(err)
	}
	st := eng.WALStats()
	if st.AppendedRecords != before.AppendedRecords {
		t.Fatal("record appended past a sticky error")
	}
	if st.AppendErrors == before.AppendErrors {
		t.Fatal("lost record not counted")
	}

	// Rotation heals: the new snapshot holds everything, the fresh log is
	// gapless, and appends resume.
	if err := eng.SaveFile(snap); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFact(users[1], likes, res.Predictions[1].Entity); err != nil {
		t.Fatal(err)
	}
	healed := eng.WALStats()
	if healed.AppendedRecords != st.AppendedRecords+1 {
		t.Fatalf("appends did not resume after rotation: %+v", healed)
	}
	liveHash := eng.StructureHash()
	liveTriples := g.NumTriples()
	if err := eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	got, err := LoadEngineFileWAL(snap, WALOptions{Sync: WALSyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer got.CloseWAL()
	if got.Graph().NumTriples() != liveTriples {
		t.Fatalf("triples %d, want %d", got.Graph().NumTriples(), liveTriples)
	}
	if got.StructureHash() != liveHash {
		t.Fatal("structure hash diverged after sticky-error rotation")
	}
}

// WALSyncAlways exercises the per-append fsync path end to end.
func TestWALSyncAlways(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	snap := filepath.Join(t.TempDir(), "eng.vkg")
	if err := eng.EnableWAL(snap, WALOptions{Sync: WALSyncAlways}); err != nil {
		t.Fatal(err)
	}
	likes, _ := g.RelationByName("likes")
	for _, u := range g.EntitiesOfType("user")[:4] {
		if _, err := eng.TopK(DirTail, u, likes, 5); err != nil {
			t.Fatal(err)
		}
	}
	appended := eng.WALStats().AppendedRecords
	h := eng.StructureHash()
	if err := eng.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	got, err := LoadEngineFileWAL(snap, WALOptions{Sync: WALSyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer got.CloseWAL()
	if rs := got.WALStats(); rs.ReplayedRecords != appended {
		t.Fatalf("replayed %d, want %d", rs.ReplayedRecords, appended)
	}
	if got.StructureHash() != h {
		t.Fatal("structure hash diverged under WALSyncAlways")
	}
}
