// Package dep declares a deprecated function. Doc comments do not reach
// a dependent's pass, so only a fact can tell a caller about it.
package dep

// Old is the function callers should stop using.
//
// Deprecated: use New.
func Old() {}

// New replaces Old.
func New() {}

// Both calls Old from inside its own package: a finding, but dep is only
// ever a dependency in the tests, so it must stay quiet.
func Both() {
	Old()
	New()
}
