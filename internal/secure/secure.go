// Package secure implements the eavesdropper side of the paper: the
// static-to-mobile security compiler of Theorem 1.2 (Section 2), Jain-style
// secure unicast and its mobile variant (Appendix A.1, Lemma A.3), the
// mobile-secure broadcast (Appendix A.2, Theorem A.4 in the share-per-tree
// variant; see "Substitutions" in the README), and the congestion-sensitive
// compiler with perfect mobile security (Appendix A.3, Theorem 1.3).
//
// All constructions share one mechanism: Phase-1 rounds exchange fresh
// uniform field elements over every edge, the Vandermonde extractor of
// Theorem 2.1 condenses them into keys the adversary knows nothing about
// (unless it watched the edge more than t rounds), and Phase 2 one-time-pads
// the underlying algorithm's messages with those keys.
package secure

import (
	"fmt"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/extract"
	"mobilecongest/internal/gf"
)

// field is the shared GF(2^16) instance.
var field = gf.NewField16()

// wordSymbols is how many GF(2^16) symbols make one 8-byte key word: the
// extractor condenses the word's symbol positions as independent lanes.
const wordSymbols = extract.Lanes

// keyBytes is the size of one key word.
const keyBytes = 2 * wordSymbols

// MobileParams reports the (r', f') guarantee of Theorem 1.2 for compiling
// an r-round f-static-secure algorithm with key-phase slack t: r' = 2r+t,
// and f' is the largest mobile budget whose bad-edge count
// floor(f'*(r+t)/(t+1)) stays within f — the exact integrality argument of
// the proof (which also shows t >= 2fr gives f' = f; the theorem's printed
// floor(f*(t+1)/(r+t)) is a lower bound on this value).
func MobileParams(r, t, f int) (rPrime, fPrime int) {
	ell := r + t
	// Largest f' with floor(f'*ell/(t+1)) <= f.
	fPrime = ((f+1)*(t+1) - 1) / ell
	return 2*r + t, fPrime
}

// SlackFor returns the canonical key-phase slack t = 2fr for compiling an
// r-round payload against an f-mobile eavesdropper: the smallest choice of
// the Theorem 1.2 proof's t >= 2fr regime, which keeps the compiled mobile
// budget at f' = f (see MobileParams). The harness, the examples, and the
// root protocol registry all pick their slack through this one function.
func SlackFor(r, f int) int { return 2 * f * r }

// KeyPool is one edge-direction's Phase-2 key material: r words of
// keyBytes bytes, stored flat.
type KeyPool struct {
	keys []byte
}

// zeroKey is what Key returns past the end of a pool.
var zeroKey [keyBytes]byte

// Key returns the i-th key as a read-only view of keyBytes bytes. Past the
// end of the pool (a receiver under a write adversary can be handed more
// shares than its edge carries) it returns an all-zero key.
func (p *KeyPool) Key(i int) []byte {
	if i < 0 || i >= p.Len() {
		return zeroKey[:]
	}
	return p.keys[i*keyBytes : (i+1)*keyBytes : (i+1)*keyBytes]
}

// Len returns the number of keys.
func (p *KeyPool) Len() int { return len(p.keys) / keyBytes }

// padInto one-time-pads msg with key (XOR over the first min(len(msg),
// len(key)) bytes; GF(2^16) addition) and appends the result to dst, which
// is typically a view of a reusable per-port buffer, or nil for a fresh
// copy.
func padInto(dst, msg, key []byte) congest.Msg {
	out := append(dst, msg...)
	padded := out[len(dst):]
	for i := 0; i < len(padded) && i < len(key); i++ {
		padded[i] ^= key[i]
	}
	return out
}

// portBuf returns port p's zero-length view of a flat buffer of size-byte
// per-port slots, capped so a longer message reallocates instead of
// spilling into the next port's slot.
func portBuf(flat []byte, p, size int) []byte {
	return flat[p*size : p*size : (p+1)*size]
}

// exchangeSecrets runs ell rounds in which every node sends keyBytes fresh
// random bytes to every neighbour, and returns port-indexed symbol streams:
// sent[p][j] = j-th symbol I sent on port p; recv[p][j] = j-th symbol I
// received on port p. Both endpoints of an edge end with identical views of
// both streams — the shared randomness pool of Theorem 1.2's first phase.
// Randomness is drawn in ascending port (== neighbour) order, matching the
// pre-port map implementation byte for byte. One send buffer serves every
// round: the engine copies outbox bytes at collection.
func exchangeSecrets(rt congest.Runtime, ell int) (sent, recv [][]gf.Elem) {
	deg := rt.Degree()
	n := ell * wordSymbols
	syms := make([]gf.Elem, 2*deg*n)
	sent = make([][]gf.Elem, deg)
	recv = make([][]gf.Elem, deg)
	for p := range sent {
		sent[p] = syms[2*p*n : (2*p+1)*n : (2*p+1)*n]
		recv[p] = syms[(2*p+1)*n : (2*p+2)*n : (2*p+2)*n]
	}
	buf := make([]byte, deg*keyBytes)
	rng := rt.Rand()
	for r := 0; r < ell; r++ {
		out := rt.OutBuf()
		for p := 0; p < deg; p++ {
			m := buf[p*keyBytes : (p+1)*keyBytes]
			for i := 0; i < wordSymbols; i++ {
				s := gf.Elem(rng.Intn(field.Order()))
				m[2*i] = byte(s >> 8)
				m[2*i+1] = byte(s)
				sent[p][r*wordSymbols+i] = s
			}
			out[p] = m
		}
		in := rt.ExchangePorts(out)
		for p := 0; p < deg; p++ {
			m := in[p] // eavesdroppers never drop messages
			for i := 0; i < wordSymbols; i++ {
				var s gf.Elem
				if 2*i+1 < len(m) {
					s = gf.Elem(m[2*i])<<8 | gf.Elem(m[2*i+1])
				}
				recv[p][r*wordSymbols+i] = s
			}
		}
	}
	return sent, recv
}

// keyExtractor is a compiled protocol's extractor for ell exchanged words
// and r keys per edge-direction, built once and shared read-only by every
// node. A construction error is kept, not returned: every node reports it
// as a panic once its Phase 1 ends, exactly where a per-node build would
// have failed.
type keyExtractor struct {
	ex  *extract.Extractor
	err error
	tag string
}

func newKeyExtractor(ell, r int, tag string) keyExtractor {
	ex, err := extract.New(field, ell, r)
	return keyExtractor{ex: ex, err: err, tag: tag}
}

// pools condenses port-indexed symbol streams into one KeyPool per port.
func (k keyExtractor) pools(streams [][]gf.Elem) []KeyPool {
	if k.err != nil {
		panic(fmt.Sprintf("secure: %s key derivation: %v", k.tag, k.err))
	}
	r := k.ex.M()
	pools := make([]KeyPool, len(streams))
	keys := make([]byte, len(streams)*r*keyBytes)
	ys := make([]gf.Elem, r*wordSymbols)
	for p, stream := range streams {
		k.ex.ExtractLanes(ys, stream)
		kp := keys[p*r*keyBytes : (p+1)*r*keyBytes]
		for i, y := range ys {
			kp[2*i] = byte(y >> 8)
			kp[2*i+1] = byte(y)
		}
		pools[p].keys = kp
	}
	return pools
}

// StaticToMobile compiles an r-round f-static-secure payload into an
// f'-mobile-secure protocol per Theorem 1.2: Phase 1 spends ell = r+t rounds
// building key pools; Phase 2 simulates the payload round-by-round with
// every message one-time-padded. Payload messages must be at most 8 bytes.
// The payload must exchange at most r times. The compiler is port-native:
// both phases and the per-round pad run on the slot boundary, and map
// payloads still work through WrappedRuntime's compat adaptation.
func StaticToMobile(payload congest.Protocol, r, t int) congest.Protocol {
	ell := r + t
	kx := newKeyExtractor(ell, r, "static-to-mobile")
	return func(rt congest.Runtime) {
		sent, recv := exchangeSecrets(rt, ell)
		sendKeys := kx.pools(sent)
		recvKeys := kx.pools(recv)
		round := 0
		deg := rt.Degree()
		dec := make([]congest.Msg, deg)
		// Per-port pad buffers: the engine copies sent bytes at collection,
		// and the decrypted inbox, like the engine's, is only valid until
		// the next exchange.
		encBuf := make([]byte, deg*keyBytes)
		decBuf := make([]byte, deg*keyBytes)
		w := &congest.WrappedRuntime{Base: rt}
		w.ExchangePortsFn = func(out []congest.Msg) []congest.Msg {
			if round >= r {
				panic(fmt.Sprintf("secure: payload exceeded its declared %d rounds", r))
			}
			penc := rt.OutBuf()
			for p, m := range out {
				if m == nil {
					continue
				}
				if len(m) > keyBytes {
					panic("secure: payload message exceeds 8 bytes")
				}
				penc[p] = padInto(portBuf(encBuf, p, keyBytes), m, sendKeys[p].Key(round))
			}
			in := rt.ExchangePorts(penc)
			for p, m := range in {
				if m == nil {
					dec[p] = nil
					continue
				}
				dec[p] = padInto(portBuf(decBuf, p, keyBytes), m, recvKeys[p].Key(round))
			}
			round++
			return dec
		}
		payload(w)
	}
}
