package main

import (
	"fmt"
	"math/rand"

	"vkgraph/internal/kg"
	"vkgraph/vkg"
)

// opKind is one operation type of a workload's traffic mix.
type opKind uint8

const (
	opTopK opKind = iota
	opAgg
	opAddFact
	opInsert
	opSetAttr
	numOpKinds
)

func (k opKind) String() string {
	return [...]string{"topk", "agg", "add_fact", "insert_entity", "set_attr"}[k]
}

func (k opKind) isWrite() bool { return k >= opAddFact }

// Fixed query parameters of every workload: top-10, and avg(year) over at
// most 50 accessed points.
const (
	topK         = 10
	aggAttr      = "year"
	aggMaxAccess = 50
)

// op is one operation of a workload sequence. A sequence is a pure function
// of the seed, so two runs of one seed do the same work.
type op struct {
	Kind   opKind
	Heads  bool // top-k/aggregate: predict heads of (?, Rel, Entity)
	Entity vkg.EntityID
	Rel    vkg.RelationID
	Other  vkg.EntityID // add_fact: the tail; insert_entity: the liking user
	Value  float64      // set_attr and insert_entity: the year
	N      int32        // insert_entity: ordinal that names the new entity
}

// query lowers a read op to the public query type.
func (o op) query() vkg.Query {
	q := vkg.Query{Entity: o.Entity, Relation: o.Rel, K: topK}
	if o.Heads {
		q.Dir = vkg.Heads
	}
	if o.Kind == opAgg {
		q.Kind = vkg.Aggregate
		q.K = 0
		q.Agg = vkg.AggSpec{Kind: vkg.Avg, Attr: aggAttr, MaxAccess: aggMaxAccess}
	}
	return q
}

// sequence is a workload's full operation list: a warm-up part and a
// measured part, each already split by client.
type sequence struct {
	Warm     [][]op
	Measured [][]op
}

// split deals ops round-robin to the clients, so client sequences stay
// deterministic whatever the interleaving at run time.
func split(ops []op, clients int) [][]op {
	out := make([][]op, clients)
	for i, o := range ops {
		out[i%clients] = append(out[i%clients], o)
	}
	return out
}

// uniformTopK draws n tail top-k queries with heads uniform over the first
// `users` entities: nearly every key is new, so the result cache misses.
func uniformTopK(rng *rand.Rand, n, users int, rel vkg.RelationID) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{Kind: opTopK, Entity: vkg.EntityID(rng.Intn(users)), Rel: rel}
	}
	return ops
}

// distinctTopK is uniformTopK without repeats (n must not exceed users):
// the cold-crack workload asks for the first n distinct queries. The first
// of them is user 0 whatever the seed, so that the first query on a cold
// index is the same work in every run.
func distinctTopK(rng *rand.Rand, n, users int, rel vkg.RelationID) []op {
	ops := make([]op, 0, n)
	ops = append(ops, op{Kind: opTopK, Entity: 0, Rel: rel})
	for _, u := range rng.Perm(users) {
		if len(ops) == n {
			break
		}
		if u != 0 {
			ops = append(ops, op{Kind: opTopK, Entity: vkg.EntityID(u), Rel: rel})
		}
	}
	return ops
}

// mix is a traffic mix in percent; the remainder to 100 is top-k.
type mix struct{ Agg, AddFact, Insert, SetAttr int }

// keyPools are the skewed key sets of the movie workloads. TopK keys come
// from random triples, either side; aggregate keys are (user, likes, ?) so
// the predicted entities are movies and carry the year attribute.
type keyPools struct {
	topk, agg []op
	likes     []kg.Triple // source of users and movies for mutations
	likesRel  vkg.RelationID
}

func newKeyPools(rng *rand.Rand, g *kg.Graph, size int) (*keyPools, error) {
	likesRel, ok := g.RelationByName("likes")
	if !ok {
		return nil, fmt.Errorf("bench: graph has no likes relation")
	}
	triples := g.Triples()
	p := &keyPools{likesRel: likesRel}
	for _, t := range triples {
		if t.R == likesRel {
			p.likes = append(p.likes, t)
		}
	}
	if len(p.likes) == 0 {
		return nil, fmt.Errorf("bench: graph has no likes triples")
	}
	for i := 0; i < size; i++ {
		t := triples[rng.Intn(len(triples))]
		if rng.Intn(2) == 0 {
			p.topk = append(p.topk, op{Kind: opTopK, Entity: t.H, Rel: t.R})
		} else {
			p.topk = append(p.topk, op{Kind: opTopK, Heads: true, Entity: t.T, Rel: t.R})
		}
		l := p.likes[rng.Intn(len(p.likes))]
		p.agg = append(p.agg, op{Kind: opAgg, Entity: l.H, Rel: likesRel})
	}
	return p, nil
}

// zipfExponent skews the movie workloads' keys: a few hot keys and a long
// tail, so the result cache matters without absorbing everything.
const zipfExponent = 1.1

// draw produces n ops of the given mix with Zipf-ranked keys. Inserted
// entities are named from firstInsert upward so names never collide.
func (p *keyPools) draw(rng *rand.Rand, n int, m mix, firstInsert int32) []op {
	z := rand.NewZipf(rng, zipfExponent, 1, uint64(len(p.topk)-1))
	ops := make([]op, n)
	next := firstInsert
	for i := range ops {
		roll := rng.Intn(100)
		switch {
		case roll < m.Agg:
			ops[i] = p.agg[z.Uint64()]
		case roll < m.Agg+m.AddFact:
			h, t := p.likes[rng.Intn(len(p.likes))].H, p.likes[rng.Intn(len(p.likes))].T
			ops[i] = op{Kind: opAddFact, Entity: h, Rel: p.likesRel, Other: t}
		case roll < m.Agg+m.AddFact+m.Insert:
			u := p.likes[rng.Intn(len(p.likes))].H
			ops[i] = op{Kind: opInsert, Rel: p.likesRel, Other: u, Value: float64(1950 + rng.Intn(71)), N: next}
			next++
		case roll < m.Agg+m.AddFact+m.Insert+m.SetAttr:
			mv := p.likes[rng.Intn(len(p.likes))].T
			ops[i] = op{Kind: opSetAttr, Entity: mv, Value: float64(1950 + rng.Intn(71))}
		default:
			ops[i] = p.topk[z.Uint64()]
		}
	}
	return ops
}
