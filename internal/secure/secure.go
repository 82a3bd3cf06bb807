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

// wordSymbols is how many GF(2^16) symbols make one 8-byte key word.
const wordSymbols = 4

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

// KeyPool is one edge-direction's Phase-2 key material: r words of 8 bytes.
type KeyPool struct {
	keys [][wordSymbols]gf.Elem
}

// Key returns the i-th 8-byte key as raw bytes.
func (p *KeyPool) Key(i int) []byte {
	out := make([]byte, 8)
	if i < 0 || i >= len(p.keys) {
		return out
	}
	for j, s := range p.keys[i] {
		out[2*j] = byte(s >> 8)
		out[2*j+1] = byte(s)
	}
	return out
}

// Len returns the number of keys.
func (p *KeyPool) Len() int { return len(p.keys) }

// xorBytes XORs key into msg (up to len(msg)); OTP over GF(2^16) addition.
func xorBytes(msg congest.Msg, key []byte) congest.Msg {
	out := msg.Clone()
	for i := 0; i < len(out) && i < len(key); i++ {
		out[i] ^= key[i]
	}
	return out
}

// exchangeSecrets runs ell rounds in which every node sends 8 fresh random
// bytes to every neighbour, and returns port-indexed symbol streams:
// fwd[p][j] = j-th symbol I sent on port p; bwd[p][j] = j-th symbol I
// received on port p. Both endpoints of an edge end with identical views of
// both streams — the shared randomness pool of Theorem 1.2's first phase.
// Randomness is drawn in ascending port (== neighbour) order, matching the
// pre-port map implementation byte for byte.
func exchangeSecrets(pr congest.PortRuntime, ell int) (sentStream, recvStream [][]gf.Elem) {
	deg := pr.Degree()
	sentStream = make([][]gf.Elem, deg)
	recvStream = make([][]gf.Elem, deg)
	for r := 0; r < ell; r++ {
		out := pr.OutBuf()
		for p := 0; p < deg; p++ {
			m := make(congest.Msg, 8)
			for i := 0; i < wordSymbols; i++ {
				s := gf.Elem(pr.Rand().Intn(field.Order()))
				m[2*i] = byte(s >> 8)
				m[2*i+1] = byte(s)
				sentStream[p] = append(sentStream[p], s)
			}
			out[p] = m
		}
		in := pr.ExchangePorts(out)
		for p := 0; p < deg; p++ {
			m := in[p] // eavesdroppers never drop messages
			for i := 0; i < wordSymbols; i++ {
				var s gf.Elem
				if 2*i+1 < len(m) {
					s = gf.Elem(m[2*i])<<8 | gf.Elem(m[2*i+1])
				}
				recvStream[p] = append(recvStream[p], s)
			}
		}
	}
	return sentStream, recvStream
}

// deriveKeyPools condenses port-indexed symbol streams into one KeyPool per
// port, panicking on extractor failure with the given context tag.
func deriveKeyPools(streams [][]gf.Elem, ell, r int, tag string) []*KeyPool {
	pools := make([]*KeyPool, len(streams))
	for p, stream := range streams {
		pool, err := deriveKeys(stream, ell, r)
		if err != nil {
			panic(fmt.Sprintf("secure: %s key derivation: %v", tag, err))
		}
		pools[p] = pool
	}
	return pools
}

// deriveKeys condenses an ell-round symbol stream into r 8-byte keys with a
// (n=ell, m=r) extractor applied to each of the wordSymbols interleaved
// sub-streams.
func deriveKeys(stream []gf.Elem, ell, r int) (*KeyPool, error) {
	ex, err := extract.New(field, ell, r)
	if err != nil {
		return nil, err
	}
	pool := &KeyPool{keys: make([][wordSymbols]gf.Elem, r)}
	sub := make([]gf.Elem, ell)
	for j := 0; j < wordSymbols; j++ {
		for i := 0; i < ell; i++ {
			sub[i] = stream[i*wordSymbols+j]
		}
		ys, err := ex.Extract(sub)
		if err != nil {
			return nil, err
		}
		for i := 0; i < r; i++ {
			pool.keys[i][j] = ys[i]
		}
	}
	return pool, nil
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
	return func(rt congest.Runtime) {
		pr := congest.Ports(rt)
		sent, recv := exchangeSecrets(pr, ell)
		sendKeys := deriveKeyPools(sent, ell, r, "static-to-mobile")
		recvKeys := deriveKeyPools(recv, ell, r, "static-to-mobile")
		round := 0
		dec := make([]congest.Msg, pr.Degree())
		w := &congest.WrappedRuntime{Base: rt}
		w.ExchangePortsFn = func(out []congest.Msg) []congest.Msg {
			if round >= r {
				panic(fmt.Sprintf("secure: payload exceeded its declared %d rounds", r))
			}
			penc := pr.OutBuf()
			for p, m := range out {
				if m == nil {
					continue
				}
				if len(m) > 8 {
					panic("secure: payload message exceeds 8 bytes")
				}
				penc[p] = xorBytes(m, sendKeys[p].Key(round))
			}
			in := pr.ExchangePorts(penc)
			for p, m := range in {
				if m == nil {
					dec[p] = nil
					continue
				}
				dec[p] = xorBytes(m, recvKeys[p].Key(round))
			}
			round++
			return dec
		}
		payload(w)
	}
}
