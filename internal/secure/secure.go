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
	"slices"
	"sync"

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

// keyPhase is one key phase's storage at one node: the Phase-1 streams
// and send buffer, the extracted pools, and, for StaticToMobile, the
// Phase-2 wrapper the payload runs on with its pad buffers. The run's
// context keeps it across runs (see congest.NodeScratch), and every use
// length-resets what it reads, so no run sees what an earlier run left.
//
// The streams are run-memo keys and the key blocks memo values that other
// nodes read, so neither may change before the run ends: takeKeyPhase
// hands every key phase of a node's run a keyPhase of its own, and the
// node rewrites one only in a later run.
type keyPhase struct {
	syms       []gf.Elem   // both streams of every port, flat
	sent, recv [][]gf.Elem // port-indexed views of syms
	buf        []byte      // the Phase-1 send buffer
	sendKeys   []KeyPool   // per-port pools, views of block or of another node's
	recvKeys   []KeyPool
	block      []byte    // the keys of the streams this node extracted
	ys         []gf.Elem // the extractor's output lanes

	// StaticToMobile's Phase 2 (see padExchange).
	w              congest.WrappedRuntime
	base           congest.Runtime
	r, round       int
	dec            []congest.Msg
	encBuf, decBuf []byte
}

// nodeKeyPhases is a node's key-phase storage: the first used of its
// phases serve the key phases of the node's current run, in order
// (CompileCongestionSensitive runs a second one, its inline broadcast's,
// while its own keys are live).
type nodeKeyPhases struct {
	run    uint64 // the memo's run count when phases[:used] were handed out
	used   int
	phases []*keyPhase
}

var keyScratch = congest.NewNodeScratch[nodeKeyPhases]()

// takeKeyPhase returns storage for one key phase of the calling node's
// run: the k-th call of a run gets the keyPhase the k-th call of the node's
// previous run used, and no other call of the run gets it.
func takeKeyPhase(rt congest.Runtime) *keyPhase {
	s := keyScratch.Of(rt)
	if run := rt.Memo().Runs(); s.run != run {
		s.run, s.used = run, 0
	}
	if s.used == len(s.phases) {
		s.phases = append(s.phases, new(keyPhase))
	}
	kp := s.phases[s.used]
	s.used++
	return kp
}

// sized returns s resized to n elements, reusing its storage when it is
// large enough. The contents are not reset.
func sized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// exchangeSecrets runs ell rounds in which every node sends keyBytes fresh
// random bytes to every neighbour, and fills kp's port-indexed symbol
// streams: sent[p][j] = j-th symbol I sent on port p; recv[p][j] = j-th
// symbol I received on port p. Both endpoints of an edge end with
// identical views of both streams — the shared randomness pool of Theorem
// 1.2's first phase. Randomness is drawn in ascending port (== neighbour)
// order, matching the pre-port map implementation byte for byte. One send
// buffer serves every round: the engine copies outbox bytes at collection.
//
// The streams are kp's: every symbol is rewritten here, and pools makes
// them memo keys, which stay untouched until the run ends because kp serves
// no other key phase of the run (see takeKeyPhase).
func exchangeSecrets(rt congest.Runtime, ell int, kp *keyPhase) {
	deg := rt.Degree()
	n := ell * wordSymbols
	kp.syms = sized(kp.syms, 2*deg*n)
	kp.sent = sized(kp.sent, deg)
	kp.recv = sized(kp.recv, deg)
	syms, sent, recv := kp.syms, kp.sent, kp.recv
	for p := range sent {
		sent[p] = syms[2*p*n : (2*p+1)*n : (2*p+1)*n]
		recv[p] = syms[(2*p+1)*n : (2*p+2)*n : (2*p+2)*n]
	}
	kp.buf = sized(kp.buf, deg*keyBytes)
	buf := kp.buf
	rng := rt.Rand()
	for r := 0; r < ell; r++ {
		out := rt.OutBuf()
		for p := 0; p < deg; p++ {
			m := (*[keyBytes]byte)(buf[p*keyBytes:])
			ss := (*[wordSymbols]gf.Elem)(sent[p][r*wordSymbols:])
			for i := range ss {
				// rng.Intn(1<<16) in one source step: for a power of
				// two it is Int31()&0xffff, bits 32–47 of Uint64().
				s := gf.Elem(rng.Uint64() >> 32)
				m[2*i] = byte(s >> 8)
				m[2*i+1] = byte(s)
				ss[i] = s
			}
			out[p] = m[:]
		}
		in := rt.ExchangePorts(out)
		for p := 0; p < deg; p++ {
			rs := (*[wordSymbols]gf.Elem)(recv[p][r*wordSymbols:])
			m := in[p]
			if len(m) >= keyBytes {
				mm := (*[keyBytes]byte)(m)
				for i := range rs {
					rs[i] = gf.Elem(mm[2*i])<<8 | gf.Elem(mm[2*i+1])
				}
				continue
			}
			// Eavesdroppers never drop or shorten messages, but a write
			// adversary may: the missing symbols read as zero.
			for i := range rs {
				var s gf.Elem
				if 2*i+1 < len(m) {
					s = gf.Elem(m[2*i])<<8 | gf.Elem(m[2*i+1])
				}
				rs[i] = s
			}
		}
	}
}

// keyGeometry is the shared read-only state of one key-phase geometry
// (ell exchanged words, r keys per edge-direction): its extractor (or, for
// an invalid geometry, the construction error) and the memo table its
// extractions are derived through.
type keyGeometry struct {
	ex      *extract.Extractor
	err     error
	derived congest.MemoTable[gf.Elem, []byte]
}

// onExtract, when tests set it, is called for every stream the key phase
// extracts (memo hits excluded), to pin the memo's use.
var onExtract func()

// keyGeometries maps [2]int{ell, r} to its *keyGeometry. Every node of
// every run with the same geometry shares one extractor, whose r 1 KiB
// multiply tables are built once per process (17 KiB for the
// secure-broadcast circulant128 f=2 cell) and kept for its life. Only
// valid geometries are stored, so the map, and the memo-table slots each
// run's memo keeps, grow with the number of distinct valid (ell, r) pairs
// the process ever uses, not with the number of runs.
var keyGeometries sync.Map

// keyExtractor derives a node's Phase-1 key pools for one geometry. A
// construction error is kept, not returned: every node reports it as a
// panic once its Phase 1 ends, exactly where a per-node build would have
// failed.
type keyExtractor struct {
	*keyGeometry
	tag string
}

func newKeyExtractor(ell, r int, tag string) keyExtractor {
	key := [2]int{ell, r}
	geo, ok := keyGeometries.Load(key)
	if !ok {
		ex, err := extract.New(field, ell, r)
		if err != nil {
			return keyExtractor{keyGeometry: &keyGeometry{err: err}, tag: tag}
		}
		geo, _ = keyGeometries.LoadOrStore(key, &keyGeometry{ex: ex, derived: congest.NewMemoTable[gf.Elem, []byte]()})
	}
	return keyExtractor{keyGeometry: geo.(*keyGeometry), tag: tag}
}

// keys condenses kp's streams, which exchangeSecrets filled, into one
// KeyPool per port and direction, and returns them (kp.sendKeys and
// kp.recvKeys).
func (k keyExtractor) keys(memo *congest.Memo, kp *keyPhase) (sendKeys, recvKeys []KeyPool) {
	if k.err != nil {
		panic(fmt.Sprintf("secure: %s key derivation: %v", k.tag, k.err))
	}
	deg := len(kp.sent)
	size := k.ex.M() * keyBytes
	kp.block = sized(kp.block, 2*deg*size)
	kp.ys = sized(kp.ys, k.ex.M()*wordSymbols)
	kp.sendKeys = k.pools(memo, kp.sent, sized(kp.sendKeys, deg), kp.block[:deg*size], kp.ys)
	kp.recvKeys = k.pools(memo, kp.recv, sized(kp.recvKeys, deg), kp.block[deg*size:], kp.ys)
	return kp.sendKeys, kp.recvKeys
}

// pools condenses port-indexed symbol streams into one KeyPool per port,
// written to pools. Both endpoints of an edge-direction hold the same
// stream unless a write adversary corrupted it in flight, so each stream
// is extracted through the run's memo: the first endpoint to condense a
// stream computes its keys into its port's part of block, and the other
// gets the same read-only bytes; ys is the extractor's lane scratch.
//
// Ownership: the memo keeps the streams as keys and the key blocks as
// values until the run ends, and other nodes read the blocks until then,
// so the caller's keyPhase holds both and is not rewritten before its
// node's next run. A pool is valid until the run ends.
func (k keyExtractor) pools(memo *congest.Memo, streams [][]gf.Elem, pools []KeyPool, block []byte, ys []gf.Elem) []KeyPool {
	size := k.ex.M() * keyBytes
	for p, stream := range streams {
		pools[p].keys = k.derived.Derive(memo, stream, func() []byte {
			keys := block[p*size : (p+1)*size : (p+1)*size]
			if onExtract != nil {
				onExtract()
			}
			k.ex.ExtractLanes(ys, stream)
			for i, y := range ys {
				keys[2*i] = byte(y >> 8)
				keys[2*i+1] = byte(y)
			}
			return keys
		})
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
		kp := takeKeyPhase(rt)
		exchangeSecrets(rt, ell, kp)
		kx.keys(rt.Memo(), kp)
		payload(kp.bindPads(rt, r))
	}
}

// bindPads readies kp's Phase-2 wrapper for a run over rt whose payload
// exchanges at most r times, and returns it. The wrapper, its outbox and
// the pad buffers are kept with kp across runs.
func (kp *keyPhase) bindPads(rt congest.Runtime, r int) *congest.WrappedRuntime {
	deg := rt.Degree()
	if kp.w.ExchangePortsFn == nil {
		kp.w.ExchangePortsFn = kp.padExchange
	}
	kp.w.Rebind(rt)
	kp.base, kp.r, kp.round = rt, r, 0
	kp.dec = sized(kp.dec, deg)
	// Per-port pad buffers: the engine copies sent bytes at collection,
	// and the decrypted inbox, like the engine's, is only valid until the
	// next exchange.
	kp.encBuf = sized(kp.encBuf, deg*keyBytes)
	kp.decBuf = sized(kp.decBuf, deg*keyBytes)
	return &kp.w
}

// padExchange simulates one payload round of StaticToMobile's Phase 2:
// every message is one-time-padded with its edge-direction's key for the
// round.
func (kp *keyPhase) padExchange(out []congest.Msg) []congest.Msg {
	rt, round := kp.base, kp.round
	if round >= kp.r {
		panic(fmt.Sprintf("secure: payload exceeded its declared %d rounds", kp.r))
	}
	penc := rt.OutBuf()
	for p, m := range out {
		if m == nil {
			continue
		}
		if len(m) > keyBytes {
			panic("secure: payload message exceeds 8 bytes")
		}
		penc[p] = padInto(portBuf(kp.encBuf, p, keyBytes), m, kp.sendKeys[p].Key(round))
	}
	in := rt.ExchangePorts(penc)
	for p, m := range in {
		if m == nil {
			kp.dec[p] = nil
			continue
		}
		kp.dec[p] = padInto(portBuf(kp.decBuf, p, keyBytes), m, kp.recvKeys[p].Key(round))
	}
	kp.round++
	return kp.dec
}
