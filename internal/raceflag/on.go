//go:build race

// Package raceflag tells tests whether the race detector is compiled in.
// Two kinds of test need to know: ones that exercise intentional data races
// (the Hogwild trainer's lock-free updates, which -race would correctly but
// unhelpfully flag), and allocation guards over sync.Pool, which drops
// items at random under the detector.
package raceflag

// Enabled reports whether the race detector is active.
const Enabled = true
