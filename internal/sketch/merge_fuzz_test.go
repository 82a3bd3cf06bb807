package sketch

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mobilecongest/internal/prime"
)

// window mirrors how the compilers cut one sampler's image out of a
// concatenation: a short tail yields a short (or nil) window.
func window(b []byte, off, n int) []byte {
	if off >= len(b) {
		return nil
	}
	return b[off:min(off+n, len(b))]
}

// FuzzMergeEncoded: the seedless wire merge equals decode, merge, encode for
// Recovery images and for concatenations of ℓ0 sampler images, on any
// input — nil, short, overlong, or corrupted. Folded into a full-size copy
// of a, the merge also runs in place: it returns that copy, holding the same
// bytes, and leaves b untouched.
func FuzzMergeEncoded(f *testing.F) {
	r := NewRecovery(5, 2)
	r.Update(Pack(3, 77), 1)
	r.Update(Pack(9, 1), -1)
	img := r.Encode()
	corrupt := append([]byte{}, img...)
	corrupt[40] ^= 0xff
	// A triple whose s31 word is P31 once hung the decoder (prime.Mod31).
	hang := make([]byte, 32)
	binary.BigEndian.PutUint64(hang[16:], prime.P31)
	sm := NewL0Sampler(6)
	sm.Update(Pack(4, 4), 1)
	f.Add(uint64(5), uint8(1), false, img, img)
	f.Add(uint64(5), uint8(1), false, img, corrupt)
	f.Add(uint64(5), uint8(1), false, []byte(nil), img[:50])
	f.Add(uint64(5), uint8(1), false, img, []byte(nil))
	f.Add(uint64(5), uint8(1), false, img, img[:50])
	f.Add(uint64(9), uint8(0), false, []byte(nil), []byte(nil))
	f.Add(uint64(9), uint8(0), false, hang, img)
	f.Add(uint64(6), uint8(0), true, sm.Encode(), sm.Encode()[:33])
	f.Add(uint64(6), uint8(2), true, bytes.Repeat([]byte{0xff}, 3*EncodedL0Size+7), []byte{1})
	// Full-size images on both sides whose every word is unreduced: the
	// whole-triple fold must reduce a's words as load does, not only b's.
	for _, c := range []struct {
		param uint8
		l0    bool
		size  int
	}{{3, false, EncodedSize(4)}, {0, false, EncodedSize(1)}, {0, true, EncodedL0Size}, {2, true, 3 * EncodedL0Size}} {
		ones := bytes.Repeat([]byte{0xff}, c.size)
		p31 := bytes.Repeat([]byte{0xff}, c.size)
		for off := 0; off < c.size; off += 32 {
			binary.BigEndian.PutUint64(p31[off+16:], prime.P31)
		}
		f.Add(uint64(7), c.param, c.l0, ones, p31)
		f.Add(uint64(7), c.param, c.l0, p31, ones)
		f.Add(uint64(7), c.param, c.l0, p31, p31)
	}
	f.Fuzz(func(t *testing.T, seed uint64, param uint8, l0 bool, a, b []byte) {
		var size int
		var want []byte
		if l0 {
			samplers := 1 + int(param)%3
			size = samplers * EncodedL0Size
			for h := 0; h < samplers; h++ {
				hs := seed + uint64(h)
				sa := DecodeL0Sampler(hs, window(a, h*EncodedL0Size, EncodedL0Size))
				sa.Merge(DecodeL0Sampler(hs, window(b, h*EncodedL0Size, EncodedL0Size)))
				want = append(want, sa.Encode()...)
			}
		} else {
			s := 1 + int(param)%4
			size = EncodedSize(s)
			ra := DecodeRecovery(seed, s, a)
			ra.Merge(DecodeRecovery(seed, s, b))
			want = ra.Encode()
		}
		full := make([]byte, size)
		copy(full, a)
		bIn := append([]byte(nil), b...)
		// The seed corpus may pass one slice as both a and b.
		if got := MergeEncoded(append([]byte(nil), a...), b, size); !bytes.Equal(got, want) {
			t.Fatalf("l0=%v param=%d: wire merge differs from decode+merge+encode", l0, param)
		}
		got := MergeEncoded(full, b, size)
		if !bytes.Equal(got, want) {
			t.Fatalf("l0=%v param=%d: in-place fold differs from decode+merge+encode", l0, param)
		}
		if &got[0] != &full[0] {
			t.Fatalf("l0=%v param=%d: fold into a full-size image allocated", l0, param)
		}
		if !bytes.Equal(b, bIn) {
			t.Fatalf("l0=%v param=%d: merge wrote to its second argument", l0, param)
		}
	})
}
