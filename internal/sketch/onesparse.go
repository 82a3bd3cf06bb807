// Package sketch implements the linear sketching toolkit of the paper's
// Tool 3 (Section 3.1): mergeable ℓ0-sampling sketches and s-sparse recovery
// sketches over a turnstile stream of (element, ±1 frequency) updates. The
// compilers stream every sent message with frequency +1 and every received
// message with frequency -1, so the non-zero-frequency support is exactly
// the set of corrupted ("mismatched") messages and their corrections.
//
// Elements are 128-bit values packing a directed-edge index with a 64-bit
// payload; arithmetic runs over the CRT pair (2^61-1, 2^31-1), whose product
// exceeds the element range, so one-sparse recovery is exact.
package sketch

import (
	"encoding/binary"

	"mobilecongest/internal/prime"
)

// Elem is a stream element: the integer Hi*2^64 + Lo, which must stay below
// P61*P31 (~2^92). Pack enforces the range.
type Elem struct {
	Hi, Lo uint64
}

// MaxEdgeIndex bounds the directed-edge index packable into an element.
const MaxEdgeIndex = 1 << 26

// Pack builds an element from a directed-edge index and a 64-bit payload.
// It panics if edgeIdx is out of range (a programming error: graphs in this
// simulator are far smaller).
func Pack(edgeIdx uint32, payload uint64) Elem {
	if edgeIdx >= MaxEdgeIndex {
		panic("sketch: edge index too large to pack")
	}
	return Elem{Hi: uint64(edgeIdx), Lo: payload}
}

// Unpack splits an element back into edge index and payload.
func (e Elem) Unpack() (edgeIdx uint32, payload uint64) {
	return uint32(e.Hi), e.Lo
}

// IsZero reports whether e is the zero element.
func (e Elem) IsZero() bool { return e.Hi == 0 && e.Lo == 0 }

// mod61 returns the element value mod 2^61-1. Since 2^64 === 8 (mod P61),
// e = hi*2^64 + lo === 8*hi + lo.
func (e Elem) mod61() uint64 {
	return prime.Add61(prime.Mul61(prime.Mod61(e.Hi), 8), prime.Mod61(e.Lo))
}

// mod31 returns the element value mod 2^31-1. Since 2^64 === 4 (mod P31).
func (e Elem) mod31() uint64 {
	return prime.Add31(prime.Mul31(prime.Mod31(e.Hi), 4), prime.Mod31(e.Lo))
}

// zValue is the pseudo-random verification tag of an element. It must be a
// *non-linear* function of the element: a linear tag satisfies the same
// linear relations as the sums themselves and would systematically accept
// multi-sparse buckets. We use the splitmix64 finalizer as a keyed PRF
// (the standard r^e tag has the same role; a strong mixer is cheaper).
func zValue(key uint64, e Elem) uint64 {
	x := mix64(e.Hi ^ key)
	x = mix64(x + e.Lo + 0x9e3779b97f4a7c15)
	x = mix64(x ^ key)
	return prime.Mod61(x)
}

// prf64 is a keyed non-linear PRF over elements, used wherever a hash of an
// element must not preserve linear structure (bucket assignment, sampling
// levels): a linear hash sends element pairs whose difference divides the
// range into the same bucket in every row.
func prf64(key uint64, e Elem) uint64 {
	x := mix64(e.Hi + key*0x9e3779b97f4a7c15)
	x = mix64(x ^ (e.Lo + 0x6a09e667f3bcc909))
	return mix64(x + key)
}

// mix64 is the splitmix64 finalizer — a bijective, highly non-linear mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// OneSparse is the classic one-sparse recovery triple extended with a
// fingerprint: it maintains sum of frequencies, frequency-weighted element
// sums modulo both primes, and a frequency-weighted random tag. It decodes
// exactly when the underlying stream has support size one, and the
// fingerprint rejects larger supports with high probability.
type OneSparse struct {
	key   uint64
	count int64
	s61   uint64
	s31   uint64
	tag   uint64
}

// NewOneSparse creates an empty triple using fingerprint randomness seed.
// Sketches can only be merged when built from the same seed.
func NewOneSparse(seed uint64) *OneSparse {
	o := oneSparse(seed)
	return &o
}

// oneSparse is NewOneSparse by value, for the sketches that store their
// triples in flat slices.
func oneSparse(seed uint64) OneSparse {
	return OneSparse{key: mix64(seed ^ 0xa0761d6478bd642f)}
}

// Update adds element e with frequency freq (typically ±1).
func (o *OneSparse) Update(e Elem, freq int64) {
	o.count += freq
	f61 := prime.Mod61(uint64(freq & 0x7fffffffffffffff))
	neg := freq < 0
	if neg {
		f61 = prime.Mod61(uint64(-freq))
	}
	m61 := prime.Mul61(f61, e.mod61())
	m31 := prime.Mul31(prime.Mod31(f61), e.mod31())
	mt := prime.Mul61(f61, zValue(o.key, e))
	if neg {
		o.s61 = prime.Sub61(o.s61, m61)
		o.s31 = prime.Sub31(o.s31, m31)
		o.tag = prime.Sub61(o.tag, mt)
	} else {
		o.s61 = prime.Add61(o.s61, m61)
		o.s31 = prime.Add31(o.s31, m31)
		o.tag = prime.Add61(o.tag, mt)
	}
}

// Merge folds other into o (both must share the seed).
func (o *OneSparse) Merge(other *OneSparse) {
	o.count += other.count
	o.s61 = prime.Add61(o.s61, other.s61)
	o.s31 = prime.Add31(o.s31, other.s31)
	o.tag = prime.Add61(o.tag, other.tag)
}

// IsEmpty reports whether the sketch is consistent with the empty support.
func (o *OneSparse) IsEmpty() bool {
	return o.count == 0 && o.s61 == 0 && o.s31 == 0 && o.tag == 0
}

// Decode returns (element, frequency, true) if the sketch is consistent with
// a single-element support, else ok=false. Correct whenever the support is
// truly one-sparse; false positives require a fingerprint collision
// (probability ~2^-61 per decode).
func (o *OneSparse) Decode() (Elem, int64, bool) {
	if o.count == 0 {
		return Elem{}, 0, false
	}
	c := o.count
	neg := c < 0
	abs := uint64(c)
	if neg {
		abs = uint64(-c)
	}
	c61 := prime.Mod61(abs)
	c31 := prime.Mod31(abs)
	s61, s31 := o.s61, o.s31
	if neg {
		s61 = prime.Sub61(0, s61)
		s31 = prime.Sub31(0, s31)
	}
	e61 := prime.Mul61(s61, prime.Inv61(c61))
	e31 := prime.Mul31(s31, prime.Inv31(c31))
	hi, lo := prime.CRT(e61, e31)
	e := Elem{Hi: hi, Lo: lo}
	// Verify the tag: tag must equal count * z(e).
	want := prime.Mul61(c61, zValue(o.key, e))
	if neg {
		want = prime.Sub61(0, want)
	}
	if o.tag != want {
		return Elem{}, 0, false
	}
	return e, o.count, true
}

// Encode serializes the triple to a fixed 32-byte wire format (seedless —
// both endpoints already share the seed).
func (o *OneSparse) Encode() []byte {
	return o.appendTo(make([]byte, 0, 32))
}

// appendTo appends the 32-byte wire triple to b.
func (o *OneSparse) appendTo(b []byte) []byte {
	b = appendU64(b, uint64(o.count))
	b = appendU64(b, o.s61)
	b = appendU64(b, o.s31)
	return appendU64(b, o.tag)
}

// DecodeOneSparse parses a wire triple created with the same seed. Short or
// corrupted buffers produce *some* triple (garbage in, garbage out) — the
// resilient protocols vote across trees rather than trusting any single
// sketch.
func DecodeOneSparse(seed uint64, data []byte) *OneSparse {
	o := NewOneSparse(seed)
	o.load(data, 0)
	return o
}

// load reads o's sums from the wire triple at data[off:off+32]; bytes past
// the end of data read as zero.
func (o *OneSparse) load(data []byte, off int) {
	o.count = int64(readU64(data, off))
	o.s61 = prime.Mod61(readU64(data, off+8))
	o.s31 = prime.Mod31(readU64(data, off+16))
	o.tag = prime.Mod61(readU64(data, off+24))
}

// MergeEncoded adds two encoded sketch images triple by triple and returns
// the size-byte image of the sum. The result is byte for byte the encoding
// of the decoded images merged, for any shared seed: merging adds the sums
// and never reads the fingerprint keys, so it needs no seed. size is
// EncodedSize(s) for Recovery images, EncodedL0Size (times the number of
// concatenated samplers) for L0Sampler ones. Short or nil images read as
// zero-padded, as the decoders read them.
func MergeEncoded(a, b []byte, size int) []byte {
	out := make([]byte, 0, size)
	var x, y OneSparse
	for off := 0; off+32 <= size; off += 32 {
		x.load(a, off)
		y.load(b, off)
		x.Merge(&y)
		out = x.appendTo(out)
	}
	return out
}

func appendU64(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(b, v)
}

// readU64 reads the big-endian word at b[off:off+8]; bytes past the end of b
// read as zero.
func readU64(b []byte, off int) uint64 {
	if off+8 <= len(b) {
		return binary.BigEndian.Uint64(b[off:])
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v <<= 8
		if off+i < len(b) {
			v |= uint64(b[off+i])
		}
	}
	return v
}
