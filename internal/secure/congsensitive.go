package secure

import (
	"mobilecongest/internal/congest"
	"mobilecongest/internal/gf"
	"mobilecongest/internal/hashfam"
	"mobilecongest/internal/rsim"
)

// Congestion-sensitive compiler with perfect mobile security (Appendix A.3,
// Theorem 1.3). Payload messages are at most 2 bytes (one GF(2^16) symbol);
// the compiled algorithm sends a fixed-size ciphertext on *every* edge in
// *every* round, hiding both content and traffic pattern:
//
//	Step 1: local secret exchange -> r one-time-pad keys per edge-direction;
//	Step 2: global secret exchange -> a c-wise independent hash h* shared by
//	        all nodes but hidden from the adversary (c = 4*f*cong), via the
//	        mobile-secure broadcast;
//	Step 3: round i sends h*(m ◦ round-tag) + K_i for a real message m, or a
//	        uniform random string for an empty slot. Receivers invert h*
//	        by table lookup and recognize empties by the padding check.

// csCipherBytes is the ciphertext size: 3 GF(2^16) symbols (48 bits), so a
// random string collides with a valid padded image w.p. 2^16/2^48 = 2^-32.
const csCipherBytes = 6

// CSConfig parameterizes the congestion-sensitive compiler.
type CSConfig struct {
	// R is the payload's exact round count.
	R int
	// F is the mobile eavesdropper bound.
	F int
	// Cong is the payload's congestion bound (messages per edge over the
	// whole run) — sets the hash independence c = 4*F*Cong.
	Cong int
	// KeySlack is the t of Theorem 1.2's first phase (defaults to 2*F*R,
	// which yields f' = F exactly).
	KeySlack int
}

// csHash derives the shared hash triple from a 16-byte seed: three c-wise
// independent polynomials over GF(2^16), one per output symbol.
func csHash(seed []byte, c int) [3]*hashfam.Hash {
	s := int64(congest.U64(seed))
	var out [3]*hashfam.Hash
	for i := range out {
		out[i] = hashfam.FromSeed(field, c, s+int64(i)*0x1f123bb5)
	}
	return out
}

// csEncrypt computes h*(m ◦ tag) for a 2-byte message symbol.
func csEncrypt(h [3]*hashfam.Hash, m gf.Elem) [3]gf.Elem {
	// Domain separation: symbol position folded into the input so the
	// three outputs are independent images of the same padded message.
	var out [3]gf.Elem
	for i := range out {
		out[i] = h[i].Eval(m)
	}
	return out
}

// csImage is h*'s image of one message symbol: a ciphertext before its pad.
type csImage [3]gf.Elem

// csInverses maps h*'s images back to their symbols. h* is a pure function
// of the broadcast seed and c, and every node that decoded the same seed
// derives the same h*, so its inverse is built once per run, through the
// run's memo, and shared read-only; a node that decoded another seed gets a
// table of its own.
var csInverses = congest.NewMemoTable[uint64, map[csImage]gf.Elem]()

// csInverse returns the inverse table of the h* that seed and c give,
// through m.
func csInverse(m *congest.Memo, seed uint64, c int) map[csImage]gf.Elem {
	return csInverses.Derive(m, []uint64{seed, uint64(c)}, func() map[csImage]gf.Elem {
		h := csHash(congest.PutU64(nil, seed), c)
		table := make(map[csImage]gf.Elem, field.Order())
		for sym := 0; sym < field.Order(); sym++ {
			table[csImage(csEncrypt(h, gf.Elem(sym)))] = gf.Elem(sym)
		}
		return table
	})
}

// CompileCongestionSensitive wraps a payload whose messages are at most
// 2 bytes. The run's Shared must be a *BroadcastShared rooted anywhere (it
// carries the packing for the global secret broadcast); the source of the
// global secret is the packing root.
func CompileCongestionSensitive(payload congest.Protocol, cfg CSConfig) congest.Protocol {
	if cfg.KeySlack <= 0 {
		cfg.KeySlack = 2 * cfg.F * cfg.R
	}
	ell := cfg.R + cfg.KeySlack
	kx := newKeyExtractor(ell, cfg.R, "congestion-sensitive")
	return func(rt congest.Runtime) {
		sh, ok := rt.Shared().(*BroadcastShared)
		if !ok {
			panic("secure: run Config.Shared must be *secure.BroadcastShared")
		}
		// Step 1: r keys of 6 bytes per edge-direction. Reuse the 8-byte
		// pool machinery (we use the first 6 bytes of each key).
		// The inline broadcast of Step 2 runs a second key phase while
		// these keys are live; takeKeyPhase gives it storage of its own.
		kp := takeKeyPhase(rt)
		exchangeSecrets(rt, ell, kp)
		sendKeys, recvKeys := kx.keys(rt.Memo(), kp)

		// Step 2: the packing root broadcasts the hash seed; we reuse the
		// mobile-secure broadcast inline. The root's "input" here is drawn
		// from its private randomness, not rt.Input (which belongs to the
		// payload), so we inline the call with a shadow input.
		var seedInput []byte
		if rsim.IsRoot(sh.Views[rt.ID()]) {
			seedInput = congest.PutU64(nil, rt.Rand().Uint64())
		}
		inner := &congest.WrappedRuntime{
			Base:            rt,
			ExchangePortsFn: rt.ExchangePorts,
			ShadowShared:    sh,
			InputFn:         func() []byte { return seedInput },
		}
		var seedOut uint64
		capture := &outputCapture{Runtime: inner, sink: &seedOut}
		MobileSecureBroadcast(cfg.F)(capture)
		c := 4 * cfg.F * cfg.Cong
		if c < 2 {
			c = 2
		}
		h := csHash(congest.PutU64(nil, seedOut), c)

		// Step 3: h*'s inverse table (2^16 entries), built once per run.
		table := csInverse(rt.Memo(), seedOut, c)

		round := 0
		deg := rt.Degree()
		dec := make([]congest.Msg, deg)
		// Per-port pad buffers, reused every round (see StaticToMobile);
		// plain is scratch for one received ciphertext at a time.
		encBuf := make([]byte, deg*csCipherBytes)
		decBuf := make([]byte, deg*2)
		var plain []byte
		w := &congest.WrappedRuntime{Base: rt, ShadowShared: nil}
		w.ExchangePortsFn = func(out []congest.Msg) []congest.Msg {
			if round >= cfg.R {
				panic("secure: payload exceeded its declared rounds")
			}
			enc := rt.OutBuf()
			for p := 0; p < rt.Degree(); p++ {
				var cipher [csCipherBytes]byte
				if m := out[p]; m != nil {
					var sym gf.Elem
					if len(m) > 2 {
						panic("secure: congestion-sensitive payload message exceeds 2 bytes")
					}
					if len(m) > 0 {
						sym = gf.Elem(m[0]) << 8
					}
					if len(m) > 1 {
						sym |= gf.Elem(m[1])
					}
					ci := csEncrypt(h, sym)
					for i, s := range ci {
						cipher[2*i] = byte(s >> 8)
						cipher[2*i+1] = byte(s)
					}
				} else {
					// Empty slot: uniform random ciphertext.
					rt.Rand().Read(cipher[:])
				}
				enc[p] = padInto(portBuf(encBuf, p, csCipherBytes), cipher[:], sendKeys[p].Key(round))
			}
			in := rt.ExchangePorts(enc)
			for p, m := range in {
				dec[p] = nil
				if m == nil {
					continue
				}
				plain = padInto(plain[:0], m, recvKeys[p].Key(round))
				var ci csImage
				for i := 0; i < 3; i++ {
					if 2*i+1 < len(plain) {
						ci[i] = gf.Elem(plain[2*i])<<8 | gf.Elem(plain[2*i+1])
					}
				}
				if sym, okDec := table[ci]; okDec {
					dec[p] = append(portBuf(decBuf, p, 2), byte(sym>>8), byte(sym))
				}
			}
			round++
			return dec
		}
		payload(w)
	}
}

// outputCapture intercepts SetOutput.
type outputCapture struct {
	congest.Runtime
	sink *uint64
}

// SetOutput stores uint64 outputs into the sink instead of the node output.
func (o *outputCapture) SetOutput(v any) {
	if u, ok := v.(uint64); ok {
		*o.sink = u
	}
}
