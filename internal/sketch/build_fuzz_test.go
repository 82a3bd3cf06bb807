package sketch

import (
	"bytes"
	"math"
	"testing"

	"mobilecongest/internal/prime"
)

// oracleUpdate is the per-element one-sparse update as it stood before
// updates were prepared once per stream: every residue is recomputed for
// every bucket the element lands in.
func oracleUpdate(o *OneSparse, e Elem, freq int64) {
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

// oracleRecovery encodes seed's sparsity-s sketch of items through
// oracleUpdate.
func oracleRecovery(seed uint64, s int, items []Item) []byte {
	r := NewRecovery(seed, s)
	for _, it := range items {
		for i := 0; i < r.rows; i++ {
			oracleUpdate(&r.buckets[i*r.width+r.bucketOf(i, it.E)], it.E, it.Freq)
		}
	}
	return r.Encode()
}

// oracleL0 encodes seed's ℓ0 sampler of items through oracleUpdate.
func oracleL0(seed uint64, items []Item) []byte {
	sm := NewL0Sampler(seed)
	for _, it := range items {
		top := sm.level(it.E)
		for l := 0; l <= top; l++ {
			oracleUpdate(&sm.levels[l], it.E, it.Freq)
		}
	}
	return sm.Encode()
}

// fuzzFreqs are the frequencies a fuzz stream draws from: zero, ±1, large
// values of both signs, and the extremes of int64.
var fuzzFreqs = []int64{0, 1, -1, 2, -3, 1 << 40, -(1 << 40), math.MaxInt64, -math.MaxInt64, math.MinInt64}

// fuzzStream decodes data into a stream, three bytes per update: a
// frequency selector, an edge index and a payload byte repeated across
// the word. Small alphabets make repeated elements common.
func fuzzStream(data []byte) []Item {
	var items []Item
	for ; len(data) >= 3; data = data[3:] {
		items = append(items, Item{
			E:    Pack(uint32(data[1]), uint64(data[2])*0x0101010101010101),
			Freq: fuzzFreqs[int(data[0])%len(fuzzFreqs)],
		})
	}
	return items
}

// replay returns a stream that feeds items and counts its calls.
func replay(items []Item, calls *int) func(update func(e Elem, freq int64)) {
	return func(update func(e Elem, freq int64)) {
		*calls++
		for _, it := range items {
			update(it.E, it.Freq)
		}
	}
}

// FuzzRecoveryImagesBuild: on any stream, every image Build returns equals
// the encoding of that seed's sketch fed update by update through the
// per-element arithmetic, and Build calls the stream exactly once. A
// second Build on the same RecoveryImages, over a prefix of the stream and
// other seeds, checks the same against reused storage.
func FuzzRecoveryImagesBuild(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint64(2), []byte{1, 3, 7, 2, 4, 9})
	f.Add(uint8(1), uint64(5), uint64(5), []byte{1, 3, 7, 2, 3, 7, 1, 3, 7})
	f.Add(uint8(2), uint64(0), uint64(1<<63), []byte{0, 1, 1, 5, 2, 2, 6, 2, 2, 7, 3, 3, 8, 3, 3, 9, 4, 4})
	f.Add(uint8(3), uint64(42), uint64(7), []byte{8, 255, 255, 9, 255, 255, 7, 0, 0, 3, 1, 128})
	f.Add(uint8(3), uint64(9), uint64(10), []byte(nil))
	f.Fuzz(func(t *testing.T, sp uint8, seedA, seedB uint64, data []byte) {
		s := 1 + int(sp)%4
		items := fuzzStream(data)
		var ri RecoveryImages
		for call, c := range []struct {
			seeds []uint64
			items []Item
		}{
			{[]uint64{seedA, seedB, seedA ^ seedB}, items},
			{[]uint64{seedB + 1, seedA}, items[:len(items)/2]},
		} {
			calls := 0
			images := ri.Build(c.seeds, s, replay(c.items, &calls))
			if calls != 1 {
				t.Fatalf("call %d: Build ran the stream %d times, want once", call, calls)
			}
			if len(images) != len(c.seeds) {
				t.Fatalf("call %d: %d images for %d seeds", call, len(images), len(c.seeds))
			}
			for j, seed := range c.seeds {
				if want := oracleRecovery(seed, s, c.items); !bytes.Equal(images[j], want) {
					t.Fatalf("call %d s=%d seed %d: image differs from the per-element sketch", call, s, seed)
				}
			}
		}
	})
}

// TestL0ImagesBuild: each image is its group's samplers, fed update by
// update through the per-element arithmetic and encoded back to back; the
// stream runs once per Build, a second Build reuses the first one's
// storage, and folding into one image leaves its neighbour intact.
func TestL0ImagesBuild(t *testing.T) {
	items := fuzzStream([]byte{1, 3, 7, 2, 4, 9, 1, 3, 7, 8, 200, 5, 9, 5, 5})
	var li L0Images
	var first []byte
	for call, seeds := range [][]uint64{{5, 6, 7, 8, 9, 10}, {11, 12, 13, 14, 15, 16}} {
		const per = 3
		calls := 0
		images := li.Build(seeds, per, replay(items, &calls))
		if calls != 1 || len(images) != len(seeds)/per {
			t.Fatalf("call %d: %d stream calls, %d images", call, calls, len(images))
		}
		for g, img := range images {
			var want []byte
			for _, seed := range seeds[g*per : (g+1)*per] {
				want = append(want, oracleL0(seed, items)...)
			}
			if !bytes.Equal(img, want) || cap(img) != per*EncodedL0Size {
				t.Fatalf("call %d image %d: not a size-capped copy of its samplers' encodings", call, g)
			}
		}
		if call == 0 {
			first = images[0]
		} else if &images[0][0] != &first[0] {
			t.Fatal("second Build reallocated its buffer")
		}
		next := append([]byte(nil), images[1]...)
		MergeEncoded(images[0], next, per*EncodedL0Size)
		if !bytes.Equal(images[1], next) {
			t.Fatalf("call %d: folding into image 0 changed image 1", call)
		}
	}
}
