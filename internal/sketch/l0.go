package sketch

import (
	"math/rand"

	"mobilecongest/internal/hashfam"
	"mobilecongest/internal/prime"
)

// L0Sampler is the ℓ0-sampling sketch of Theorem 3.4: Query returns a
// (near-)uniform element of the non-zero-frequency support, and Merge
// combines sketches built with the same randomness. The construction is the
// standard level-sampling one: level l subsamples the universe at rate 2^-l
// and keeps a one-sparse triple; Query decodes the lowest level that is
// exactly one-sparse.
type L0Sampler struct {
	seed   uint64
	levels []OneSparse
	lkey   uint64 // level-assignment PRF key
}

// l0Levels covers supports up to 2^40 elements — far beyond any stream here.
const l0Levels = 40

// NewL0Sampler creates an empty sampler from the given randomness seed.
// Samplers merge only when created from equal seeds.
func NewL0Sampler(seed uint64) *L0Sampler {
	s := &L0Sampler{levels: make([]OneSparse, l0Levels)}
	s.reseed(seed)
	return s
}

// reseed empties s and rekeys it with a new seed, keeping its storage:
// afterwards s is identical to NewL0Sampler(seed).
func (s *L0Sampler) reseed(seed uint64) {
	s.seed = seed
	s.lkey = mix64(seed ^ 0x9e3779b97f4a7c15)
	for i := range s.levels {
		s.levels[i] = oneSparse(seed + uint64(i)*0x2545f4914f6cdd1d)
	}
}

// level returns the deepest level element e participates in: e is in levels
// 0..level(e).
func (s *L0Sampler) level(e Elem) int {
	h := prf64(s.lkey, e)
	l := 0
	for l < l0Levels-1 && h&1 == 1 {
		l++
		h >>= 1
	}
	return l
}

// Update adds element e with frequency freq.
func (s *L0Sampler) Update(e Elem, freq int64) {
	u := prepare(e, freq)
	s.apply(&u)
}

// apply adds the prepared update u to every level it participates in.
func (s *L0Sampler) apply(u *prepared) {
	top := s.level(u.e)
	for l := 0; l <= top; l++ {
		s.levels[l].apply(u)
	}
}

// Merge folds another sampler (same seed) into s.
func (s *L0Sampler) Merge(other *L0Sampler) {
	for i := range s.levels {
		s.levels[i].Merge(&other.levels[i])
	}
}

// Query returns a sample from the support, scanning from the sparsest
// (deepest) level down. ok=false when the support appears empty or no level
// is one-sparse (constant failure probability; callers run Theta(log n)
// independent samplers).
func (s *L0Sampler) Query() (Elem, int64, bool) {
	for l := l0Levels - 1; l >= 0; l-- {
		if s.levels[l].IsEmpty() {
			continue
		}
		if e, f, ok := s.levels[l].Decode(); ok {
			return e, f, true
		}
	}
	return Elem{}, 0, false
}

// Empty reports whether every level is consistent with an empty support.
func (s *L0Sampler) Empty() bool {
	for i := range s.levels {
		if !s.levels[i].IsEmpty() {
			return false
		}
	}
	return true
}

// Encode serializes the sampler (32 bytes per level).
func (s *L0Sampler) Encode() []byte {
	return s.appendTo(make([]byte, 0, 32*len(s.levels)))
}

// appendTo appends the Encode image to dst and returns the extended slice.
func (s *L0Sampler) appendTo(dst []byte) []byte {
	for i := range s.levels {
		dst = s.levels[i].appendTo(dst)
	}
	return dst
}

// DecodeL0Sampler parses a sampler wire image produced with the same seed.
// Corrupted bytes yield a garbage (but well-formed) sampler.
func DecodeL0Sampler(seed uint64, data []byte) *L0Sampler {
	s := NewL0Sampler(seed)
	for i := range s.levels {
		s.levels[i].load(data, 32*i)
	}
	return s
}

// EncodedL0Size is the wire size of an encoded sampler.
const EncodedL0Size = 32 * l0Levels

// L0Images encodes groups of ℓ0 samplers, one group per image, through a
// single L0Sampler reseeded per seed, following RecoveryImages: a node
// keeps one across calls, so its per-tree samplers cost no allocation after
// the first call.
type L0Images struct {
	sm     *L0Sampler
	stream preparedStream
	buf    []byte
	images [][]byte
}

// Reserve makes room for a stream of n updates, so that Build collects one
// of up to n updates without growing its storage.
func (li *L0Images) Reserve(n int) { li.stream.reserve(n) }

// Build feeds stream's updates to one sampler per seed and returns
// len(seeds)/per images, for a positive per: image i holds the Encode
// images of the samplers of seeds[i*per : (i+1)*per], back to back. It
// calls stream once, and the samplers are linear, so the order of the
// updates does not change any image. The images stay valid until the
// next Build; each is capped at its own length and owned by the caller
// exclusively.
func (li *L0Images) Build(seeds []uint64, per int, stream func(update func(e Elem, freq int64))) [][]byte {
	size := per * EncodedL0Size
	if li.sm == nil {
		li.sm = NewL0Sampler(0)
	}
	li.stream.collect(stream)
	groups := len(seeds) / per
	li.buf = growImages(li.buf, groups*size)
	li.images = li.images[:0]
	for g := 0; g < groups; g++ {
		for _, seed := range seeds[g*per : (g+1)*per] {
			li.sm.reseed(seed)
			for i := range li.stream.list {
				li.sm.apply(&li.stream.list[i])
			}
			li.buf = li.sm.appendTo(li.buf)
		}
		li.images = append(li.images, li.buf[len(li.buf)-size:len(li.buf):len(li.buf)])
	}
	return li.images
}

// XorFolder derives auxiliary seeds from one broadcast seed, for the
// compilers that need per-(tree, iteration, sampler) seeds. It draws the
// underlying fingerprint once, so deriving many seeds costs one draw.
type XorFolder struct {
	fp hashfam.Fingerprint
}

// NewXorFolder draws the fingerprint from rng, which must start at the
// broadcast seed's stream: NewXorFolder(g.Restart(int64(seed))) on a kept
// congest.SeededRand folds as a fingerprint freshly seeded from seed.
func NewXorFolder(rng *rand.Rand) XorFolder {
	return XorFolder{fp: hashfam.FingerprintFrom(rng)}
}

// Fold derives the auxiliary seed for parts.
func (x XorFolder) Fold(parts ...uint64) uint64 {
	return prime.Mod61(x.fp.Hash64(parts))
}
