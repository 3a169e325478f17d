//go:build !vkgdebug

package core

// walcheckEngineLocked is the release no-op of the append-under-lock
// assertion; build with -tags vkgdebug for the checking version.
func (e *Engine) walcheckEngineLocked(kind string) {}

// walcheckIndexLocked is the release no-op of the index-lock assertion.
func (e *Engine) walcheckIndexLocked() {}
