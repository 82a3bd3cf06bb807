// Package hashfam implements families of bounded-independence hash functions
// (Definition 4 / Lemma 1.11 of the paper) via random polynomials of degree
// c-1 over GF(2^16), plus the pairwise-independent transcript fingerprints
// used by the rewind-if-error compiler (Section 4).
package hashfam

import (
	"math/rand"

	"mobilecongest/internal/gf"
	"mobilecongest/internal/prime"
)

// Hash is a function drawn from a c-wise independent family
// h: GF(2^16) -> GF(2^16). For distinct inputs x1..xc, the values h(xi) are
// independent and uniform when h is drawn uniformly from the family.
type Hash struct {
	f      *gf.Field
	coeffs []gf.Elem
}

// New draws a c-wise independent hash function using randomness from rng.
// The classical construction: a uniformly random polynomial of degree c-1
// over the field is c-wise independent.
func New(f *gf.Field, c int, rng *rand.Rand) *Hash {
	coeffs := make([]gf.Elem, c)
	for i := range coeffs {
		coeffs[i] = gf.Elem(rng.Intn(f.Order()))
	}
	return &Hash{f: f, coeffs: coeffs}
}

// FromSeed draws a c-wise independent hash deterministically from a seed;
// the compiled algorithms broadcast a short seed and have every node derive
// the same hash function locally.
func FromSeed(f *gf.Field, c int, seed int64) *Hash {
	return New(f, c, rand.New(rand.NewSource(seed)))
}

// Eval returns h(x).
func (h *Hash) Eval(x gf.Elem) gf.Elem { return h.f.EvalPoly(h.coeffs, x) }

// EvalBytes hashes an arbitrary byte string by absorbing it block-wise:
// state = h(state XOR block). This is the "wide input" adapter used when the
// congestion-sensitive compiler hashes padded messages; for c-wise
// independence on the compiled messages only the final Eval matters because
// message identifiers make inputs distinct in their first block.
func (h *Hash) EvalBytes(data []byte) gf.Elem {
	var state gf.Elem
	for i := 0; i < len(data); i += 2 {
		var block gf.Elem
		block = gf.Elem(data[i])
		if i+1 < len(data) {
			block |= gf.Elem(data[i+1]) << 8
		}
		state = h.Eval(state ^ block ^ gf.Elem(i+1))
	}
	return h.Eval(state)
}

// Fingerprint is a pairwise-independent-style hash of arbitrary-length
// transcripts into 61 bits, h(x) = poly-eval of the transcript words at a
// random point plus a random offset, mod 2^61-1. Two fixed distinct
// transcripts collide with probability at most L/2^61 over the draw — the
// guarantee the rewind-if-error phase needs when comparing sent/received
// transcripts (Section 4.1).
type Fingerprint struct {
	point  uint64
	offset uint64
}

// NewFingerprint draws a fingerprint function from a 64-bit seed. Seeds are
// what nodes exchange in the round-initialization phase (R_i(u,v)).
func NewFingerprint(seed uint64) Fingerprint {
	return FingerprintFrom(rand.New(rand.NewSource(int64(seed))))
}

// FingerprintFrom draws a fingerprint function from rng, which must start
// at its seed's stream: FingerprintFrom(g.Restart(int64(seed))) on a kept
// congest.SeededRand is NewFingerprint(seed) without a new source.
func FingerprintFrom(rng *rand.Rand) Fingerprint {
	return Fingerprint{
		point:  rng.Uint64()%(prime.P61-1) + 1,
		offset: rng.Uint64() % prime.P61,
	}
}

// Hash64 fingerprints a slice of 64-bit words.
func (fp Fingerprint) Hash64(words []uint64) uint64 {
	acc := fp.offset
	for _, w := range words {
		acc = prime.Add61(prime.Mul61(acc, fp.point), prime.Mod61(w))
	}
	return acc
}

// HashBytes fingerprints a byte string word-by-word.
func (fp Fingerprint) HashBytes(data []byte) uint64 {
	acc := fp.offset
	var w uint64
	n := 0
	for _, b := range data {
		w = w<<8 | uint64(b)
		n++
		if n == 7 { // keep each word below 2^61
			acc = prime.Add61(prime.Mul61(acc, fp.point), prime.Mod61(w))
			w, n = 0, 0
		}
	}
	acc = prime.Add61(prime.Mul61(acc, fp.point), prime.Mod61(w|uint64(n)<<56))
	return acc
}
