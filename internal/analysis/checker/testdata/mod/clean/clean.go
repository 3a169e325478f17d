// Package clean imports dep and calls only what is not deprecated.
package clean

import "example.com/mod/dep"

// Use draws no finding.
func Use() {
	dep.New()
}
