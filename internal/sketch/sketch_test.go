package sketch

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOneSparseSingleElement(t *testing.T) {
	o := NewOneSparse(7)
	e := Pack(12345, 0xdeadbeefcafe)
	o.Update(e, 1)
	got, f, ok := o.Decode()
	if !ok || got != e || f != 1 {
		t.Fatalf("decode = (%v,%d,%v), want (%v,1,true)", got, f, ok, e)
	}
}

func TestOneSparseNegativeFrequency(t *testing.T) {
	o := NewOneSparse(8)
	e := Pack(3, 999)
	o.Update(e, -1)
	got, f, ok := o.Decode()
	if !ok || got != e || f != -1 {
		t.Fatalf("decode = (%v,%d,%v), want (%v,-1,true)", got, f, ok, e)
	}
}

func TestOneSparseCancellation(t *testing.T) {
	o := NewOneSparse(9)
	e1, e2 := Pack(1, 100), Pack(2, 200)
	o.Update(e1, 1)
	o.Update(e2, 1)
	o.Update(e1, -1)
	got, f, ok := o.Decode()
	if !ok || got != e2 || f != 1 {
		t.Fatalf("after cancellation decode = (%v,%d,%v), want (%v,1,true)", got, f, ok, e2)
	}
	o.Update(e2, -1)
	if !o.IsEmpty() {
		t.Fatal("fully cancelled sketch not empty")
	}
}

func TestOneSparseRejectsTwoSparse(t *testing.T) {
	rejected := 0
	const trials = 200
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < trials; i++ {
		o := NewOneSparse(rng.Uint64())
		o.Update(Pack(uint32(rng.Intn(1000)), rng.Uint64()), 1)
		o.Update(Pack(uint32(1000+rng.Intn(1000)), rng.Uint64()), 1)
		if _, _, ok := o.Decode(); !ok {
			rejected++
		}
	}
	if rejected < trials-1 {
		t.Fatalf("two-sparse accepted %d/%d times", trials-rejected, trials)
	}
}

func TestOneSparseMergeEqualsUnion(t *testing.T) {
	a := NewOneSparse(5)
	b := NewOneSparse(5)
	e := Pack(77, 42)
	a.Update(Pack(1, 1), 1)
	b.Update(Pack(1, 1), -1)
	b.Update(e, 1)
	a.Merge(b)
	got, f, ok := a.Decode()
	if !ok || got != e || f != 1 {
		t.Fatalf("merged decode = (%v,%d,%v), want (%v,1,true)", got, f, ok, e)
	}
}

func TestOneSparseWire(t *testing.T) {
	o := NewOneSparse(11)
	e := Pack(500, 123456789)
	o.Update(e, 1)
	o2 := DecodeOneSparse(11, o.Encode())
	got, f, ok := o2.Decode()
	if !ok || got != e || f != 1 {
		t.Fatal("wire round-trip lost the element")
	}
}

func TestPackUnpack(t *testing.T) {
	f := func(idx uint32, payload uint64) bool {
		idx %= MaxEdgeIndex
		e := Pack(idx, payload)
		gi, gp := e.Unpack()
		return gi == idx && gp == payload
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestL0SamplerUniformity(t *testing.T) {
	// Insert 8 elements; across many seeds the sample distribution should
	// be roughly uniform (Theorem 3.4's near-uniformity).
	elems := make([]Elem, 8)
	for i := range elems {
		elems[i] = Pack(uint32(i+1), uint64(1000+i))
	}
	counts := make(map[Elem]int)
	rng := rand.New(rand.NewSource(2))
	const trials = 4000
	fails := 0
	for trial := 0; trial < trials; trial++ {
		s := NewL0Sampler(rng.Uint64())
		for _, e := range elems {
			s.Update(e, 1)
		}
		e, f, ok := s.Query()
		if !ok {
			fails++
			continue
		}
		if f != 1 {
			t.Fatalf("sampled frequency %d, want 1", f)
		}
		counts[e]++
	}
	if fails > trials/3 {
		t.Fatalf("sampler failed %d/%d times", fails, trials)
	}
	succeeded := trials - fails
	want := float64(succeeded) / 8
	for _, e := range elems {
		c := counts[e]
		if float64(c) < want*0.5 || float64(c) > want*1.6 {
			t.Errorf("element %v sampled %d times, expected about %f", e, c, want)
		}
	}
	// Only inserted elements may ever be returned.
	for e := range counts {
		found := false
		for _, x := range elems {
			if x == e {
				found = true
			}
		}
		if !found {
			t.Fatalf("sampler fabricated element %v", e)
		}
	}
}

func TestL0SamplerEmpty(t *testing.T) {
	s := NewL0Sampler(3)
	if !s.Empty() {
		t.Fatal("fresh sampler not empty")
	}
	if _, _, ok := s.Query(); ok {
		t.Fatal("query on empty support succeeded")
	}
	e := Pack(1, 2)
	s.Update(e, 1)
	s.Update(e, -1)
	if !s.Empty() {
		t.Fatal("cancelled sampler not empty")
	}
}

func TestL0SamplerMergeAcrossParts(t *testing.T) {
	// Simulate the distributed aggregation: the stream is split across 10
	// "nodes", sketches merged pairwise; the sample must still come from
	// the joint support.
	seed := uint64(44)
	parts := make([]*L0Sampler, 10)
	for i := range parts {
		parts[i] = NewL0Sampler(seed)
	}
	// Element i inserted at node i with +1 and at node (i+1)%10 with -1
	// except element 0 which survives.
	for i := 1; i < 10; i++ {
		e := Pack(uint32(i), uint64(i))
		parts[i].Update(e, 1)
		parts[(i+1)%10].Update(e, -1)
	}
	survivor := Pack(42, 4242)
	parts[3].Update(survivor, 1)
	root := NewL0Sampler(seed)
	for _, p := range parts {
		root.Merge(p)
	}
	e, f, ok := root.Query()
	if !ok || e != survivor || f != 1 {
		t.Fatalf("merged query = (%v,%d,%v), want survivor", e, f, ok)
	}
}

func TestL0Wire(t *testing.T) {
	s := NewL0Sampler(77)
	e := Pack(9, 9)
	s.Update(e, 1)
	enc := s.Encode()
	if len(enc) != EncodedL0Size {
		t.Fatalf("encoded size %d, want %d", len(enc), EncodedL0Size)
	}
	s2 := DecodeL0Sampler(77, enc)
	got, _, ok := s2.Query()
	if !ok || got != e {
		t.Fatal("wire round-trip lost the sample")
	}
}

func TestRecoveryExact(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		s := 1 + rng.Intn(12)
		r := NewRecovery(rng.Uint64(), s)
		want := make(map[Elem]int64)
		for i := 0; i < s; i++ {
			e := Pack(uint32(rng.Intn(10000)), rng.Uint64())
			f := int64(1)
			if rng.Intn(2) == 0 {
				f = -1
			}
			if _, dup := want[e]; dup {
				continue
			}
			want[e] = f
			r.Update(e, f)
		}
		items, ok := r.Decode()
		if !ok {
			t.Fatalf("trial %d: decode failed with support %d <= s=%d", trial, len(want), s)
		}
		if len(items) != len(want) {
			t.Fatalf("trial %d: got %d items, want %d", trial, len(items), len(want))
		}
		for _, it := range items {
			if want[it.E] != it.Freq {
				t.Fatalf("trial %d: item %v freq %d, want %d", trial, it.E, it.Freq, want[it.E])
			}
		}
	}
}

func TestRecoveryOverflowDetected(t *testing.T) {
	// Support 4x the sparsity: decode must report failure, not fabricate.
	r := NewRecovery(5, 2)
	rng := rand.New(rand.NewSource(5))
	inserted := make(map[Elem]bool)
	for i := 0; i < 8; i++ {
		e := Pack(uint32(i+1), rng.Uint64())
		inserted[e] = true
		r.Update(e, 1)
	}
	items, ok := r.Decode()
	if ok && len(items) < 8 {
		t.Fatal("overfull sketch claimed complete decode with missing items")
	}
	for _, it := range items {
		if !inserted[it.E] {
			t.Fatalf("fabricated element %v", it.E)
		}
	}
}

func TestRecoveryMergeAndWire(t *testing.T) {
	seed := uint64(99)
	a := NewRecovery(seed, 4)
	b := NewRecovery(seed, 4)
	e1, e2 := Pack(1, 11), Pack(2, 22)
	a.Update(e1, 1)
	b.Update(e2, -1)
	b.Update(e1, 0) // no-op
	c := DecodeRecovery(seed, 4, a.Encode())
	c.Merge(b)
	items, ok := c.Decode()
	if !ok || len(items) != 2 {
		t.Fatalf("merged wire decode: ok=%v items=%v", ok, items)
	}
}

func TestRecoveryDecodeNonDestructive(t *testing.T) {
	r := NewRecovery(1, 3)
	e := Pack(5, 55)
	r.Update(e, 1)
	if _, ok := r.Decode(); !ok {
		t.Fatal("first decode failed")
	}
	items, ok := r.Decode()
	if !ok || len(items) != 1 || items[0].E != e {
		t.Fatal("second decode differs — Decode is destructive")
	}
}

// TestRecoveryLoadDecodeWith: one Recovery loaded again and again and one
// work value decoding into them, across sparsities and seeds, give exactly
// DecodeRecovery and Decode: the same image, the same items, the same
// verdict, an unchanged loaded sketch, and a supported stream, an
// overflowing one and garbage bytes alike.
func TestRecoveryLoadDecodeWith(t *testing.T) {
	var loaded, work Recovery
	rng := rand.New(rand.NewSource(3))
	for i, c := range []struct {
		s, support int
	}{{3, 2}, {10, 9}, {1, 1}, {3, 8}, {10, 0}, {4, -1}, {3, 3}} {
		seed := rng.Uint64()
		var img []byte
		if c.support < 0 {
			img = make([]byte, EncodedSize(c.s))
			rng.Read(img)
		} else {
			r := NewRecovery(seed, c.s)
			for j := 0; j < c.support; j++ {
				r.Update(Pack(uint32(j+1), rng.Uint64()), int64(1-2*(j%2)))
			}
			img = r.Encode()
		}
		want := DecodeRecovery(seed, c.s, img)
		loaded.Load(seed, c.s, img)
		if !bytes.Equal(loaded.Encode(), want.Encode()) || loaded.S() != want.S() {
			t.Fatalf("case %d: Load differs from DecodeRecovery", i)
		}
		wantItems, wantOK := want.Decode()
		gotItems, gotOK := loaded.DecodeWith(&work)
		if fmt.Sprint(gotItems, gotOK) != fmt.Sprint(wantItems, wantOK) {
			t.Fatalf("case %d: DecodeWith gives %v %v, Decode %v %v", i, gotItems, gotOK, wantItems, wantOK)
		}
		if !bytes.Equal(loaded.Encode(), want.Encode()) {
			t.Fatalf("case %d: DecodeWith changed the sketch it decoded", i)
		}
		if c.support >= 0 && c.support <= c.s && !gotOK {
			t.Fatalf("case %d: a %d-sparse stream did not decode at s=%d", i, c.support, c.s)
		}
	}
}

// TestRecoveryReseedAppendTo: a sketch reseeded after updates under an
// earlier seed encodes exactly as a fresh NewRecovery, empty and after the
// same updates, and AppendTo extends its destination in place of replacing it.
func TestRecoveryReseedAppendTo(t *testing.T) {
	const sparsity = 3
	r := NewRecovery(1, sparsity)
	for i, seed := range []uint64{1, 0, 42, 1<<63 | 7, 42} {
		r.Update(Pack(uint32(i+1), 0xabc), 1)
		r.Update(Pack(9, uint64(i)), -2)
		r.Reseed(seed)
		fresh := NewRecovery(seed, sparsity)
		if got, want := r.AppendTo(nil), fresh.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: reseeded empty sketch differs from NewRecovery", seed)
		}
		for _, u := range []struct {
			e Elem
			f int64
		}{{Pack(3, 30), 1}, {Pack(4, 40), -1}, {Pack(3, 30), 2}} {
			r.Update(u.e, u.f)
			fresh.Update(u.e, u.f)
		}
		prefix := []byte("image:")
		got := r.AppendTo(prefix)
		want := append([]byte("image:"), fresh.Encode()...)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: AppendTo after updates differs from NewRecovery.Encode", seed)
		}
		if items, ok := DecodeRecovery(seed, sparsity, got[len(prefix):]).Decode(); !ok || len(items) != 2 {
			t.Fatalf("seed %d: reseeded sketch decodes to %v (ok=%v)", seed, items, ok)
		}
	}
}

// TestRecoveryImagesBuild: each image equals a fresh sketch's encoding,
// a second Build reuses the first one's storage, and an in-place fold into
// one image leaves its neighbour intact.
func TestRecoveryImagesBuild(t *testing.T) {
	const sparsity = 2
	size := EncodedSize(sparsity)
	stream := func(update func(e Elem, freq int64)) {
		update(Pack(1, 10), 1)
		update(Pack(2, 20), -1)
	}
	var ri RecoveryImages
	var first []byte
	for call, seeds := range [][]uint64{{5, 6, 7}, {8, 9, 10}} {
		images := ri.Build(seeds, sparsity, stream)
		if len(images) != len(seeds) {
			t.Fatalf("call %d: %d images for %d seeds", call, len(images), len(seeds))
		}
		for j, seed := range seeds {
			fresh := NewRecovery(seed, sparsity)
			stream(fresh.Update)
			if !bytes.Equal(images[j], fresh.Encode()) || cap(images[j]) != size {
				t.Fatalf("call %d image %d: not a size-capped copy of the fresh encoding", call, j)
			}
		}
		if call == 0 {
			first = images[0]
		} else if &images[0][0] != &first[0] {
			t.Fatal("second Build reallocated its buffer")
		}
		next := append([]byte(nil), images[1]...)
		MergeEncoded(images[0], next, size)
		if !bytes.Equal(images[1], next) {
			t.Fatalf("call %d: folding into image 0 changed image 1", call)
		}
	}
}

func BenchmarkL0Update(b *testing.B) {
	s := NewL0Sampler(1)
	for i := 0; i < b.N; i++ {
		s.Update(Pack(uint32(i%1000), uint64(i)), 1)
	}
}

func BenchmarkRecoveryDecode(b *testing.B) {
	r := NewRecovery(1, 8)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		r.Update(Pack(uint32(i+1), rng.Uint64()), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Decode(); !ok {
			b.Fatal("decode failed")
		}
	}
}

// The byz-clique shape of one node's correction step: hardened-clique on
// clique16 under f = 2 sketches at sparsity 4f+2 = 10, streams 15 sent
// messages (+1) and 15 estimates (-1), and keeps one seed per tree of the
// 16-star packing.
const (
	benchSparsity = 10
	benchTrees    = 16
	benchUpdates  = 30
)

func benchSeeds(base uint64) []uint64 {
	seeds := make([]uint64, benchTrees)
	for j := range seeds {
		seeds[j] = mix64(base + uint64(j))
	}
	return seeds
}

func benchStream(update func(e Elem, freq int64)) {
	for i := 0; i < benchUpdates; i++ {
		freq := int64(1)
		if i >= benchUpdates/2 {
			freq = -1
		}
		update(Pack(uint32(i%(benchUpdates/2))<<5|uint32(i&1), mix64(uint64(i))), freq)
	}
}

// BenchmarkRecoveryImagesBuild: one node's per-tree sketch images for one
// correction iteration.
func BenchmarkRecoveryImagesBuild(b *testing.B) {
	seeds := benchSeeds(1)
	var ri RecoveryImages
	ri.Build(seeds, benchSparsity, benchStream)
	b.ReportAllocs()
	for b.Loop() {
		ri.Build(seeds, benchSparsity, benchStream)
	}
}

// BenchmarkMergeEncoded: one convergecast step, folding a child's sketch
// image into each tree's image in place.
func BenchmarkMergeEncoded(b *testing.B) {
	seeds := benchSeeds(1)
	var own, child RecoveryImages
	images := own.Build(seeds, benchSparsity, benchStream)
	children := child.Build(seeds, benchSparsity, benchStream)
	size := EncodedSize(benchSparsity)
	b.ReportAllocs()
	b.SetBytes(int64(benchTrees * size))
	for b.Loop() {
		for j := range images {
			MergeEncoded(images[j], children[j], size)
		}
	}
}
