// Package sentuser exercises the sentinelerr rules across a package
// boundary: another package's sentinels, known through the facts its
// analysis exported, and the module-wide sentinel table.
package sentuser

import (
	"errors"
	"fmt"

	"sent"
)

// bad: identity comparison with an imported sentinel.
func missing(err error) bool {
	return err == sent.ErrMissing // want `use errors.Is`
}

// ok: an imported sentinel wrapped with %w, or returned as it is.
func fetch(key string) error {
	if key == "" {
		return sent.ErrMissing
	}
	return fmt.Errorf("fetch %q: %w", key, sent.ErrMissing)
}

// bad: the message of an imported sentinel, known only through its fact.
func stale() error {
	return errors.New("entry stale") // want `sent.ErrStale`
}

// bad: the message shadows a module-wide sentinel from the known table
// even though this package never imports its defining package.
func lookupEntity(name string) error {
	return fmt.Errorf("unknown entity %q", name) // want `vkg.ErrUnknownEntity`
}

// bad: a load-shedding path minting its own "server overloaded" error is
// invisible to errors.Is(err, vkg.ErrOverloaded).
func shed(inflight int) error {
	return fmt.Errorf("server overloaded: %d in flight", inflight) // want `vkg.ErrOverloaded`
}

// bad: same for the deadline sentinel — a handler that re-states the
// message instead of wrapping vkg.ErrDeadlineExceeded breaks 504 mapping.
func expire(name string) error {
	return fmt.Errorf("deadline exceeded serving %q", name) // want `vkg.ErrDeadlineExceeded`
}
