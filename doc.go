// Package vkgraph is a reproduction of "Online Indices for Predictive Top-k
// Entity and Aggregate Queries on Knowledge Graphs" (Li, Ge, Chen; ICDE
// 2020): a virtual knowledge graph — a knowledge graph extended with
// predicted edges and probabilities — indexed by an online-cracked,
// low-dimensional R-tree over JL-transformed embedding vectors.
//
// The public API lives in the vkg subpackage — single queries through
// TopK*/Aggregate*, serving workloads through the batched Do/DoBatch
// request API with its worker pool and result cache; the substrates (TransE
// embedding, JL transform, cracking R-tree, baselines) live under internal/;
// cmd/ holds the dataset, training, query, and serving tools. Two tools
// measure: cmd/vkg-bench (-exp) regenerates every table and figure of the
// paper's evaluation, and the bench module (bash bench/run.sh) measures the
// system's own performance.
package vkgraph
