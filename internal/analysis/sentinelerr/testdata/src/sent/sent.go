// Package sent exercises the sentinelerr rules against a package's own
// sentinels: comparison, wrapping and shadowing.
package sent

import (
	"errors"
	"fmt"
)

// ErrMissing is the sentinel for absent records.
var ErrMissing = errors.New("record missing")

// ErrStale marks an expired cache entry.
var ErrStale = errors.New("entry stale")

// bad: identity comparison misses wrapped sentinels.
func compare(err error) bool {
	return err == ErrMissing // want `use errors.Is`
}

// bad: != is the same mistake with the opposite sign.
func compareNeq(err error) bool {
	return err != ErrStale // want `use errors.Is`
}

// ok: nil checks are not sentinel comparisons.
func isNil(err error) bool {
	return err == nil
}

type cursor struct{ err error }

// Is implements the errors.Is protocol — the one place identity belongs.
func (c *cursor) Is(target error) bool {
	return target == ErrMissing
}

// bad: %v flattens the sentinel out of the error chain.
func wrapWrong(key string) error {
	return fmt.Errorf("lookup %q: %v", key, ErrMissing) // want `use %w`
}

// ok: %w keeps errors.Is matching through the wrap.
func wrapRight(key string) error {
	return fmt.Errorf("lookup %q: %w", key, ErrMissing)
}

// bad: a fresh error with the sentinel's exact message shadows it —
// reads the same, invisible to errors.Is.
func shadow() error {
	return errors.New("record missing") // want `duplicates the message of sentinel ErrMissing`
}

// bad: same shadow through fmt.Errorf with trailing detail.
func shadowf(key string) error {
	return fmt.Errorf("record missing %q", key) // want `duplicates the message of sentinel ErrMissing`
}

// ok: wrapping the sentinel is exactly what the rule asks for, even
// though the message necessarily repeats it.
func wrapWithDetail(key string) error {
	return fmt.Errorf("record missing %q: %w", key, ErrMissing)
}
