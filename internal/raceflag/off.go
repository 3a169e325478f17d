//go:build !race

package raceflag

// Enabled reports whether the race detector is active.
const Enabled = false
