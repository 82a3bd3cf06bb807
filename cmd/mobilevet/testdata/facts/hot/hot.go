// Package hot calls into package dep from a hot root. hotalloc reports the
// call unless dep's hotpath fact on Ring.Len reaches this package, so a
// clean run over this package alone shows that facts cross packages.
package hot

import "mobilecongest/cmd/mobilevet/testdata/facts/dep"

// Step is a hot root whose only call lands in another package.
//
//mobilevet:hotpath
func Step(r *dep.Ring) int { return r.Len() + 1 }
