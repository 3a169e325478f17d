package main

import (
	"fmt"
	"math/rand"

	"vkgraph/internal/embedding"
	"vkgraph/vkg"
)

// synthConfig sizes the synth-large graph: a clustered embedding written
// directly, so no TransE training sits between the seed and the index.
type synthConfig struct {
	Users, Items int
	Dim          int
	Latent       int     // dimension of the Gaussian the cluster centres come from
	MicroSize    int     // mean items per micro-cluster
	Noise        float64 // within-cluster sigma
	LikesPerUser int     // known edges per user, into the user's own cluster
}

// synthLarge is the 300k-entity instance: S1 is 300k x 50 x 8 B = 120 MB.
func synthLarge() synthConfig {
	return synthConfig{Users: 100_000, Items: 200_000, Dim: 50, Latent: 10, MicroSize: 40, Noise: 0.15, LikesPerUser: 3}
}

// synthGraph is a generated graph with its hand-written embedding. Users
// are entities [0, Users), items [Users, Users+Items).
type synthGraph struct {
	G     *vkg.Graph
	Model *embedding.Model
	Likes vkg.RelationID
	Users int
	Items int
}

// genSynth builds the graph and model from the seed alone: item
// micro-clusters around centres drawn from a low-dimensional Gaussian pushed
// through a random basis, each user placed at (centre - r_likes + noise) so
// that user + r_likes lands inside the user's cluster, a few known likes
// edges per user into that cluster, and a year attribute on items.
func genSynth(cfg synthConfig, seed int64) (*synthGraph, error) {
	rng := rand.New(rand.NewSource(seed))
	d := cfg.Dim
	clusters := max(1, cfg.Items/cfg.MicroSize)

	basis := make([]float64, cfg.Latent*d)
	for i := range basis {
		basis[i] = rng.NormFloat64() / 2.5
	}
	centres := make([]float64, clusters*d)
	z := make([]float64, cfg.Latent)
	for c := 0; c < clusters; c++ {
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		row := centres[c*d : (c+1)*d]
		for i, zi := range z {
			for j, b := range basis[i*d : (i+1)*d] {
				row[j] += zi * b
			}
		}
	}
	rel := make([]float64, d)
	for i := range rel {
		rel[i] = rng.NormFloat64() / 2.5
	}

	n := cfg.Users + cfg.Items
	ents := make([]float64, n*d)
	members := make([][]vkg.EntityID, clusters)
	for i := 0; i < cfg.Items; i++ {
		c := rng.Intn(clusters)
		id := vkg.EntityID(cfg.Users + i)
		members[c] = append(members[c], id)
		row, ctr := ents[int(id)*d:(int(id)+1)*d], centres[c*d:(c+1)*d]
		for j := range row {
			row[j] = ctr[j] + cfg.Noise*rng.NormFloat64()
		}
	}
	userCluster := make([]int, cfg.Users)
	for u := 0; u < cfg.Users; u++ {
		c := rng.Intn(clusters)
		for len(members[c]) == 0 { // a cluster that drew no item cannot be liked
			c = rng.Intn(clusters)
		}
		userCluster[u] = c
		row, ctr := ents[u*d:(u+1)*d], centres[c*d:(c+1)*d]
		for j := range row {
			row[j] = ctr[j] - rel[j] + cfg.Noise*rng.NormFloat64()
		}
	}

	g := vkg.NewGraph()
	for u := 0; u < cfg.Users; u++ {
		g.AddEntity(fmt.Sprintf("user%d", u), "user")
	}
	for i := 0; i < cfg.Items; i++ {
		id := g.AddEntity(fmt.Sprintf("item%d", i), "item")
		g.SetAttr("year", id, float64(1950+rng.Intn(71)))
	}
	likes := g.AddRelation("likes")
	for u, c := range userCluster {
		m := members[c]
		for e := 0; e < cfg.LikesPerUser; e++ {
			// Duplicate draws are dropped by AddTriple: the graph is a set.
			if err := g.AddTriple(vkg.EntityID(u), likes, m[rng.Intn(len(m))]); err != nil {
				return nil, fmt.Errorf("synth: %w", err)
			}
		}
	}
	model := &embedding.Model{Dim: d, Entities: ents, Rels: rel, NormUsed: embedding.L2}
	return &synthGraph{G: g, Model: model, Likes: likes, Users: cfg.Users, Items: cfg.Items}, nil
}
