module vkgraph/bench

go 1.22

require vkgraph v0.0.0

replace vkgraph => ../
