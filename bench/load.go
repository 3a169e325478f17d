package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"vkgraph/vkg"
)

// loadStats is what a closed-loop run observed. Latencies are in
// milliseconds and cover successful operations only: a failed operation is
// counted, not timed.
type loadStats struct {
	lat       [numOpKinds][]float64
	attempted int
	failed    int
	wall      time.Duration
	firstErr  error
}

// sortedTopK returns the top-k latencies sorted ascending.
func (s *loadStats) sortedTopK() []float64 {
	out := append([]float64(nil), s.lat[opTopK]...)
	sort.Float64s(out)
	return out
}

func (s *loadStats) writes() []float64 {
	var out []float64
	for k := opAddFact; k < numOpKinds; k++ {
		out = append(out, s.lat[k]...)
	}
	return out
}

func (s *loadStats) merge(o *loadStats) {
	for k := range s.lat {
		s.lat[k] = append(s.lat[k], o.lat[k]...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// execFunc performs one operation for one client; req numbers the
// operation within the run so traced layers can be correlated.
type execFunc func(client int, req uint64, o op) error

// runLoad is the closed-loop load generator: one goroutine per client, each
// sending its next operation only after the previous one returned. The
// operation lists are fixed, so the work is the same on every run; the
// deadline only cuts a run short on a machine too slow to finish, and the
// cut shows up as a smaller attempted count.
func runLoad(clients [][]op, exec execFunc, deadline time.Time) *loadStats {
	per := make([]*loadStats, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		per[c] = &loadStats{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := per[c]
			for i, o := range clients[c] {
				t0 := time.Now()
				if !deadline.IsZero() && t0.After(deadline) {
					return
				}
				// Request ids interleave the clients: client c's i-th
				// operation is number i*clients+c, starting at 1.
				err := exec(c, uint64(i*len(clients)+c)+1, o)
				st.attempted++
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = fmt.Errorf("%s op %d of client %d: %w", o.Kind, i, c, err)
					}
					continue
				}
				st.lat[o.Kind] = append(st.lat[o.Kind], ms(time.Since(t0)))
			}
		}(c)
	}
	wg.Wait()
	total := &loadStats{wall: time.Since(start)}
	for _, st := range per {
		total.merge(st)
	}
	return total
}

// inProcess returns the execFunc of the in-process workloads: each client
// calls the VKG's public methods directly.
func inProcess(v *vkg.VKG) execFunc {
	ctx := context.Background()
	return func(_ int, _ uint64, o op) error { return applyOp(ctx, v, o) }
}

// applyOp performs one operation against a VKG.
func applyOp(ctx context.Context, v *vkg.VKG, o op) error {
	switch o.Kind {
	case opTopK, opAgg:
		_, err := v.Do(ctx, o.query())
		return err
	case opAddFact:
		return v.AddFact(o.Entity, o.Rel, o.Other)
	case opInsert:
		_, err := v.InsertEntity(fmt.Sprintf("new%d", o.N), "movie",
			[]vkg.Fact{{Rel: o.Rel, Other: o.Other}}, map[string]float64{aggAttr: o.Value})
		return err
	case opSetAttr:
		return v.SetEntityAttr(aggAttr, o.Entity, o.Value)
	}
	return fmt.Errorf("bench: unknown op kind %d", o.Kind)
}
