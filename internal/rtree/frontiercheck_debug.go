//go:build vkgdebug

package rtree

import "fmt"

// checkFrontierKey asserts, in vkgdebug builds, the radix frontier's
// precondition: no item is pushed below the key popped last (see frontier
// for why none can be). Release builds file such an item in bucket 0,
// which keeps the order but hides the broken argument; here it panics so
// the walk that provoked it fails.
func checkFrontierKey(key, last uint64) {
	if key < last {
		panic(fmt.Sprintf("rtree: frontier push of key %#x below the last popped %#x", key, last))
	}
}
