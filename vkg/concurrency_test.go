package vkg

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
)

// The serving-layer contract: any mix of top-k queries, aggregate queries,
// fact insertions, entity insertions, snapshots, and stats calls may run
// concurrently. Run under -race this test is the proof; without -race it
// still exercises lost-update and torn-answer failure modes.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	g, ratesHigh, frequents := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	var users, restaurants []EntityID
	for i := 0; i < 20; i++ {
		u, _ := g.EntityByName(fmt.Sprintf("user%d", i))
		users = append(users, u)
		r, _ := g.EntityByName(fmt.Sprintf("restaurant%d", i))
		restaurants = append(restaurants, r)
	}

	const workers = 8
	iters := 40
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < iters; i++ {
				u := users[rng.Intn(len(users))]
				r := restaurants[rng.Intn(len(restaurants))]
				switch rng.Intn(8) {
				case 0, 1:
					res, err := v.TopKTails(u, ratesHigh, 5)
					if err != nil {
						errs <- fmt.Errorf("TopKTails: %w", err)
						return
					}
					for _, p := range res.Predictions {
						if p.Name == "" {
							errs <- fmt.Errorf("TopKTails returned a nameless prediction")
							return
						}
					}
				case 2:
					if _, err := v.TopKHeads(r, ratesHigh, 5); err != nil {
						errs <- fmt.Errorf("TopKHeads: %w", err)
						return
					}
				case 3:
					if _, err := v.AggregateHeads(r, ratesHigh,
						AggSpec{Kind: Avg, Attr: "age", MaxAccess: 8}); err != nil {
						errs <- fmt.Errorf("AggregateHeads: %w", err)
						return
					}
				case 4:
					if err := v.AddFact(u, frequents, r); err != nil {
						errs <- fmt.Errorf("AddFact: %w", err)
						return
					}
				case 5:
					name := fmt.Sprintf("stress-%d-%d", w, i)
					if _, err := v.InsertEntity(name, "restaurant",
						[]Fact{{Rel: ratesHigh, Other: u}},
						map[string]float64{"age": 30}); err != nil {
						errs <- fmt.Errorf("InsertEntity: %w", err)
						return
					}
				case 6:
					if err := v.Save(io.Discard); err != nil {
						errs <- fmt.Errorf("Save: %w", err)
						return
					}
				case 7:
					if s := v.IndexStats(); s.TotalNodes < 1 {
						errs <- fmt.Errorf("IndexStats saw an empty index")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The engine must still be coherent after the storm.
	if err := v.Engine().CheckInvariants(); err != nil {
		t.Fatalf("index invariants after concurrent workload: %v", err)
	}
	res, err := v.TopKTails(users[0], ratesHigh, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != 5 {
		t.Fatalf("got %d predictions after concurrent workload", len(res.Predictions))
	}
}

// The serving layer resolves entity names through Graph.EntityByName without
// the engine lock, while AddFact may run. AddFact's facts go to the graph's
// overlay, which is folded back into the frozen arrays once it holds an
// eighth of the edges; that fold must leave the name index alone. Run under
// -race this test is the proof.
func TestEntityByNameDuringAddFact(t *testing.T) {
	g, ratesHigh, frequents := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	var users, restaurants []EntityID
	for i := 0; i < 80; i++ {
		u, _ := g.EntityByName(fmt.Sprintf("user%d", i))
		users = append(users, u)
	}
	for i := 0; i < 60; i++ {
		r, _ := g.EntityByName(fmt.Sprintf("restaurant%d", i))
		restaurants = append(restaurants, r)
	}

	stop := make(chan struct{})
	done := make(chan error)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			name := fmt.Sprintf("user%d", i%len(users))
			if id, ok := g.EntityByName(name); !ok || id != users[i%len(users)] {
				done <- fmt.Errorf("EntityByName(%q) = %d, %v during AddFact", name, id, ok)
				return
			}
		}
	}()

	// Each new fact adds at least two ids to the overlay, so a quarter of
	// the graph's triples in new facts crosses the fold threshold.
	start := g.NumTriples()
	for i := 0; g.NumTriples() < start+start/4; i++ {
		u, r := users[i%len(users)], restaurants[(i/len(users))%len(restaurants)]
		if err := v.AddFact(u, frequents, r); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := v.TopKTails(users[0], ratesHigh, 5); err != nil {
		t.Fatal(err)
	}
}
