// Package user calls dep's deprecated function.
package user

import "example.com/mod/dep"

// Use draws the one finding.
func Use() {
	dep.Old()
}
