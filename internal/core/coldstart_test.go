package core

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// TestColdFirstQueriesConcurrent fires the first eight queries at a cold
// engine at once, beside an InsertEntity, on a graph large enough for a
// pre-split root: one of them builds the root and its cells (their sort
// orders concurrently, under the engine write lock) while the others and
// the insert wait, and whichever path reaches the tree first must leave
// exactly one root in it. Run under -race in CI.
//
// Answers do not depend on the index shape, so each must equal what a
// serially driven twin engine returns — the twin that never saw the insert
// or the one that saw it first, depending on which side of the insert the
// query landed — and must agree with the no-index scan as well as the
// serial precision tests demand.
func TestColdFirstQueriesConcurrent(t *testing.T) {
	p := defaultTestParams()
	cold, g := movieEngine(t, bigMovieConfig(), Crack, p)
	before, _ := movieEngine(t, bigMovieConfig(), Crack, p)
	after, _ := movieEngine(t, bigMovieConfig(), Crack, p)
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	insert := func(e *Engine) {
		facts := []Fact{{Rel: likes, Other: users[0]}, {Rel: likes, Other: users[1]}, {Rel: likes, Other: users[2]}}
		if _, err := e.InsertEntity("new-movie", "movie", facts, map[string]float64{"year": 2024}); err != nil {
			t.Errorf("InsertEntity: %v", err)
		}
	}
	insert(after)
	rootNodes := before.IndexStats().TotalNodes // the root and its cells, nothing cracked yet
	if rootNodes < 2 {
		t.Fatalf("a fresh index over %d entities has %d nodes: the root is not pre-split", g.NumEntities(), rootNodes)
	}

	const n = 8
	answers := make([]*TopKResult, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := cold.TopK(DirTail, users[i], likes, 10)
			if err != nil {
				t.Errorf("TopK(%d): %v", users[i], err)
				return
			}
			answers[i] = res
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		insert(cold)
	}()
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	var precision float64
	for i, got := range answers {
		b, err := before.TopK(DirTail, users[i], likes, 10)
		if err != nil {
			t.Fatal(err)
		}
		a, err := after.TopK(DirTail, users[i], likes, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Predictions, b.Predictions) && !reflect.DeepEqual(got.Predictions, a.Predictions) {
			t.Fatalf("user %d: concurrent cold answer matches neither serial twin:\ngot    %v\nbefore %v\nafter  %v",
				users[i], got.Predictions, b.Predictions, a.Predictions)
		}
		// Now that the insert is in, the cold engine and the twin that
		// started with it agree, and both agree with the scan.
		again, err := cold.TopK(DirTail, users[i], likes, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Predictions, a.Predictions) {
			t.Fatalf("user %d: settled answer diverges from the serial twin", users[i])
		}
		want, err := cold.TopKNoIndex(DirTail, users[i], likes, 10)
		if err != nil {
			t.Fatal(err)
		}
		precision += precisionAtK(again.Predictions, want.Predictions)
	}
	if avg := precision / n; avg < 0.9 {
		t.Fatalf("precision@10 against the scan = %.3f, want >= 0.9", avg)
	}

	if err := cold.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// One pre-split root and nothing else beyond what the cracks created:
	// a root built twice would leave orphan records in the arena.
	st, ms := cold.IndexStats(), cold.Metrics()
	if want := rootNodes + int(ms.CrackNodesCreated); st.TotalNodes != want || cold.idx.tree.Nodes() != want {
		t.Fatalf("%d tree nodes, %d arena records, want %d of the root + %d cracked = %d",
			st.TotalNodes, cold.idx.tree.Nodes(), rootNodes, ms.CrackNodesCreated, want)
	}
	if ms.CrackSplits == 0 {
		t.Fatal("the cold queries cracked nothing; the test exercises no crack path")
	}
}

// TestStructureHashIsMachineIndependent: the index shape is a function of
// the data, the options and the queries, never of the machine. The same
// graph, model, seed and query script must give the same StructureHash at
// GOMAXPROCS 1, 2 and 8 — where the root's sort orders are built on one
// goroutine, two and eight — cold, live after the script, and after save →
// load → WAL replay.
func TestStructureHashIsMachineIndependent(t *testing.T) {
	type hashes struct{ cold, live, replayed uint64 }
	run := func(procs int) hashes {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		eng, g := movieEngine(t, bigMovieConfig(), Crack, defaultTestParams())
		var h hashes
		h.cold = eng.StructureHash()
		snap := t.TempDir() + "/eng.vkg"
		if err := eng.EnableWAL(snap, WALOptions{Sync: WALSyncOff}); err != nil {
			t.Fatalf("EnableWAL: %v", err)
		}
		mutateEngine(t, eng, g)
		likes, _ := g.RelationByName("likes")
		for _, u := range g.EntitiesOfType("user")[12:40] {
			if _, err := eng.Aggregate(DirTail, u, likes, AggQuery{Kind: Avg, Attr: "year", MaxAccess: 20}); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.TopK(DirTail, u, likes, 10); err != nil {
				t.Fatal(err)
			}
		}
		h.live = eng.StructureHash()
		if st := eng.WALStats(); st.AppendedRecords == 0 || st.AppendErrors != 0 {
			t.Fatalf("the script logged %d records with %d errors", st.AppendedRecords, st.AppendErrors)
		}
		if err := eng.CloseWAL(); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadEngineFileWAL(snap, WALOptions{Sync: WALSyncOff})
		if err != nil {
			t.Fatalf("LoadEngineFileWAL: %v", err)
		}
		defer loaded.CloseWAL()
		h.replayed = loaded.StructureHash()
		if err := loaded.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return h
	}
	want := run(1)
	if want.cold == want.live {
		t.Fatal("the query script cracked nothing")
	}
	if want.replayed != want.live {
		t.Fatalf("GOMAXPROCS 1: replayed hash %x, live %x", want.replayed, want.live)
	}
	for _, procs := range []int{2, 8} {
		if got := run(procs); got != want {
			t.Fatalf("GOMAXPROCS %d: hashes %+v, at GOMAXPROCS 1 %+v", procs, got, want)
		}
	}
}
