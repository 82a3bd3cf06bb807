package congest

import (
	"math/rand"
	"reflect"
)

// SeededRand is a math/rand generator that restarts from a seed and is
// kept across restarts: Restart(seed) returns a *rand.Rand whose draws are
// exactly those of rand.New(rand.NewSource(seed)). It keeps a copy of its
// source as seeded, so restarting from the seed it last restarted from
// copies that state back instead of re-running the 607-word seeding, and a
// new seed re-seeds the live source in place. Only the first Restart and
// the first repeat of a seed allocate (a source each). The zero value is
// ready to use; a SeededRand is not safe for concurrent use.
type SeededRand struct {
	r      *rand.Rand
	src    rand.Source // r's source
	seeded rand.Source // the state Seed(seed) leaves in a source; valid when fresh
	seed   int64
	fresh  bool // seeded holds seed's state
}

// Restart rewinds the generator to the start of seed's stream, as
// r.Seed(seed) would, and returns it. The *rand.Rand is the same on every
// call.
func (g *SeededRand) Restart(seed int64) *rand.Rand {
	switch {
	case g.src == nil:
		g.src = rand.NewSource(seed)
		g.r = rand.New(g.src)
		g.seed = seed
		return g.r
	case seed != g.seed:
		g.src.Seed(seed)
		g.seed, g.fresh = seed, false
	case g.seeded == nil:
		g.seeded = rand.NewSource(seed)
		g.fresh = true
		copySource(g.src, g.seeded)
	default:
		if !g.fresh {
			g.seeded.Seed(seed)
			g.fresh = true
		}
		copySource(g.src, g.seeded)
	}
	// A Rand fresh over the same source: this zeroes the Read position,
	// which Seed also resets.
	*g.r = *rand.New(g.src)
	return g.r
}

// copySource overwrites dst's generator state with src's. Both come from
// rand.NewSource, whose state is a plain value (the lagged Fibonacci
// vector and its two taps) behind a pointer, so assigning the pointee
// copies the generator exactly.
func copySource(dst, src rand.Source) {
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
}
