//go:build race

// Package raceflag tells tests whether the race detector is compiled in.
// Allocation and memory guards need to know: sync.Pool drops items at
// random under the detector, and the detector changes what an allocation
// costs.
package raceflag

// Enabled reports whether the race detector is active.
const Enabled = true
