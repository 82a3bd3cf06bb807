// Package dep exports a hotpath fact on Ring.Len for package hot to import.
package dep

// Ring is a fixed-size counter.
type Ring struct{ n int }

// Len is hot: hotalloc checks its body and exports a hotpath fact on it.
//
//mobilevet:hotpath
func (r *Ring) Len() int { return r.n }
