// Package extract implements the bit-extraction problem of Chor et al.
// (Theorem 2.1 of the paper): (t,k)-resilient functions built from
// Vandermonde matrices over GF(2^16). Given n = r+t random field elements
// exchanged across an edge, of which an adversary has observed at most t, the
// extractor produces r output keys that remain uniform and independent in the
// adversary's view. This is the engine behind the static-to-mobile security
// compiler (Theorem 1.2) and the key-pool phases of Appendix A.
//
// The extractor computes y = Mᵀx for the n×m Vandermonde matrix
// M[i][j] = α_i^j with α_i = g^(i+1) (gf.Vandermonde), but never builds M.
// Since M[i][j] = g^((i+1)j) = β_j^(i+1) with β_j = g^j, output j is the
// polynomial y_j = Σ_i x_i·β_j^(i+1), which Horner's rule evaluates as
// acc ← (acc + x_i)·β_j for i = n-1 down to 0. Multiplying by the constant
// β_j is GF(2)-linear in the bits of its operand, so v·β_j = lo_j[v & 0xff]
// ⊕ hi_j[v >> 8] for the two 256-entry halves of β_j's gf.MulTable. The
// tables depend only on m (one 1 KiB table per output), cost two loads per
// multiply, and let Lanes independent streams share them. ExtractLanes
// evaluates two outputs per pass over x, so each pass runs 2·Lanes
// independent chains.
package extract

import (
	"fmt"

	"mobilecongest/internal/gf"
)

// Lanes is the number of interleaved input streams ExtractLanes condenses at
// once: four GF(2^16) symbols make one 8-byte key word.
const Lanes = 4

// Extractor derives m hidden keys from n partially-observed random values,
// where resilience holds as long as the adversary observed at most n-m of
// them. It is read-only after New, so one instance may serve any number of
// nodes concurrently.
type Extractor struct {
	f    *gf.Field
	n, m int
	tabs []gf.MulTable // tabs[j] multiplies by β_j = g^j
}

// New constructs an extractor mapping n input elements to m output keys,
// resilient against t = n-m observed inputs (Theorem 2.1: B_k(n,t) = n-t).
func New(f *gf.Field, n, m int) (*Extractor, error) {
	if m < 1 || m > n {
		return nil, fmt.Errorf("extract: need 1 <= m <= n, got m=%d n=%d", m, n)
	}
	if n >= f.Order()-1 {
		return nil, fmt.Errorf("extract: n=%d too large for field order %d", n, f.Order())
	}
	e := &Extractor{f: f, n: n, m: m, tabs: make([]gf.MulTable, m)}
	for j := range e.tabs {
		e.tabs[j] = f.MulTable(f.Exp(j))
	}
	return e, nil
}

// N returns the number of input elements.
func (e *Extractor) N() int { return e.n }

// M returns the number of output keys.
func (e *Extractor) M() int { return e.m }

// Resilience returns t = n-m, the number of inputs the adversary may know
// without learning anything about the outputs.
func (e *Extractor) Resilience() int { return e.n - e.m }

// ExtractLanes runs Lanes extractions at once over interleaved streams:
// lane w's input is x[w], x[Lanes+w], x[2·Lanes+w], ... and its key j,
// y_j = sum_i M[i][j] * x_i, lands in dst[j·Lanes+w]. If at most
// Resilience() of a lane's inputs are known to the adversary and the rest
// are uniform, its outputs are i.i.d. uniform in the adversary's view. Each
// pass over x computes two keys, j and j+1, for every lane: eight
// independent Horner chains over two table pairs, which hides the latency
// of each chain's table loads. An odd M() ends with a single-key pass. It
// panics unless len(x) == Lanes·N() and len(dst) == Lanes·M().
func (e *Extractor) ExtractLanes(dst, x []gf.Elem) {
	if len(x) != Lanes*e.n || len(dst) != Lanes*e.m {
		panic(fmt.Sprintf("extract: ExtractLanes(dst[%d], x[%d]) on an n=%d m=%d extractor", len(dst), len(x), e.n, e.m))
	}
	j := 0
	for ; j+1 < len(e.tabs); j += 2 {
		keysPair((*[2 * Lanes]gf.Elem)(dst[j*Lanes:]), x, &e.tabs[j], &e.tabs[j+1])
	}
	if j < len(e.tabs) {
		keysOne((*[Lanes]gf.Elem)(dst[j*Lanes:]), x, &e.tabs[j])
	}
}

// keysPair writes the keys of tables s and t for every lane of x into
// ys: s's in ys[:Lanes], t's in ys[Lanes:].
func keysPair(ys *[2 * Lanes]gf.Elem, x []gf.Elem, s, t *gf.MulTable) {
	slo, shi, tlo, thi := &s[0], &s[1], &t[0], &t[1]
	// uint32 accumulators keep the eight chains and the four table
	// pointers in registers; the products are 16-bit either way.
	var a0, a1, a2, a3, b0, b1, b2, b3 uint32
	for i := len(x); i >= Lanes; i -= Lanes {
		xs := x[i-Lanes : i : i]
		v, w := a0^uint32(xs[0]), b0^uint32(xs[0])
		a0 = uint32(slo[byte(v)] ^ shi[byte(v>>8)])
		b0 = uint32(tlo[byte(w)] ^ thi[byte(w>>8)])
		v, w = a1^uint32(xs[1]), b1^uint32(xs[1])
		a1 = uint32(slo[byte(v)] ^ shi[byte(v>>8)])
		b1 = uint32(tlo[byte(w)] ^ thi[byte(w>>8)])
		v, w = a2^uint32(xs[2]), b2^uint32(xs[2])
		a2 = uint32(slo[byte(v)] ^ shi[byte(v>>8)])
		b2 = uint32(tlo[byte(w)] ^ thi[byte(w>>8)])
		v, w = a3^uint32(xs[3]), b3^uint32(xs[3])
		a3 = uint32(slo[byte(v)] ^ shi[byte(v>>8)])
		b3 = uint32(tlo[byte(w)] ^ thi[byte(w>>8)])
	}
	ys[0], ys[1], ys[2], ys[3] = gf.Elem(a0), gf.Elem(a1), gf.Elem(a2), gf.Elem(a3)
	ys[4], ys[5], ys[6], ys[7] = gf.Elem(b0), gf.Elem(b1), gf.Elem(b2), gf.Elem(b3)
}

// keysOne writes the keys of table s for every lane of x into ys.
func keysOne(ys *[Lanes]gf.Elem, x []gf.Elem, s *gf.MulTable) {
	lo, hi := &s[0], &s[1]
	var a0, a1, a2, a3 uint32
	for i := len(x); i >= Lanes; i -= Lanes {
		xs := x[i-Lanes : i : i]
		v0, v1, v2, v3 := a0^uint32(xs[0]), a1^uint32(xs[1]), a2^uint32(xs[2]), a3^uint32(xs[3])
		a0 = uint32(lo[byte(v0)] ^ hi[byte(v0>>8)])
		a1 = uint32(lo[byte(v1)] ^ hi[byte(v1>>8)])
		a2 = uint32(lo[byte(v2)] ^ hi[byte(v2>>8)])
		a3 = uint32(lo[byte(v3)] ^ hi[byte(v3>>8)])
	}
	ys[0], ys[1], ys[2], ys[3] = gf.Elem(a0), gf.Elem(a1), gf.Elem(a2), gf.Elem(a3)
}

// VerifyResilience checks algebraically that for the given set of observed
// input indices (|observed| <= t), the map from the unobserved inputs to the
// outputs is surjective — the linear-algebra condition equivalent to the
// outputs being uniform conditioned on the observed inputs. The experiment
// harness uses this as the "perfect security" certificate (experiment T2).
func (e *Extractor) VerifyResilience(observed []int) (bool, error) {
	if len(observed) > e.Resilience() {
		return false, fmt.Errorf("extract: %d observed indices exceeds resilience %d", len(observed), e.Resilience())
	}
	isObs := make(map[int]bool, len(observed))
	for _, i := range observed {
		if i < 0 || i >= e.n {
			return false, fmt.Errorf("extract: observed index %d out of range", i)
		}
		isObs[i] = true
	}
	// Build the submatrix of M restricted to unobserved rows; outputs are
	// uniform iff this (n-|observed|) x m matrix has rank m.
	full := gf.Vandermonde(e.f, e.n, e.m)
	sub := gf.NewMatrix(e.f, e.n-len(isObs), e.m)
	r := 0
	for i := 0; i < e.n; i++ {
		if isObs[i] {
			continue
		}
		for j := 0; j < e.m; j++ {
			sub.Set(r, j, full.At(i, j))
		}
		r++
	}
	return sub.Rank() == e.m, nil
}
