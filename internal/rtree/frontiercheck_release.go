//go:build !vkgdebug

package rtree

// checkFrontierKey is the release no-op of the monotone-key assertion;
// build with -tags vkgdebug for the checking version.
func checkFrontierKey(key, last uint64) {}
