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
// input — nil, short, overlong, or corrupted.
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
	f.Add(uint64(9), uint8(0), false, []byte(nil), []byte(nil))
	f.Add(uint64(9), uint8(0), false, hang, img)
	f.Add(uint64(6), uint8(0), true, sm.Encode(), sm.Encode()[:33])
	f.Add(uint64(6), uint8(2), true, bytes.Repeat([]byte{0xff}, 3*EncodedL0Size+7), []byte{1})
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
		if got := MergeEncoded(a, b, size); !bytes.Equal(got, want) {
			t.Fatalf("l0=%v param=%d: wire merge differs from decode+merge+encode", l0, param)
		}
	})
}
