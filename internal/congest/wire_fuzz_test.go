package congest

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Fuzz coverage for the wire codec: the round-trip laws PutU64/U64 and
// PutU32/U32, the zero-padding contract on short/corrupt buffers (decoders
// must never panic — adversaries hand protocols arbitrary bytes),
// AppendWords64's exact split/pad behaviour, and the packed-slot
// codec (msgRef + msgArena) the round buffers store every payload through.

func FuzzU64RoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(1))
	f.Add(uint64(0x1122334455667788))
	f.Add(^uint64(0))
	f.Fuzz(func(t *testing.T, v uint64) {
		b := PutU64(nil, v)
		if len(b) != 8 {
			t.Fatalf("PutU64 wrote %d bytes", len(b))
		}
		if got := U64(b); got != v {
			t.Fatalf("U64(PutU64(%#x)) = %#x", v, got)
		}
		// Appending must not disturb the prefix, and decoding ignores bytes
		// past the word.
		pre := PutU64([]byte{0xAB, 0xCD}, v)
		if got := U64(pre[2:]); got != v {
			t.Fatalf("append-position round trip: %#x != %#x", got, v)
		}
		if got := U64(append(b, 0xFF, 0xFF)); got != v {
			t.Fatalf("trailing bytes changed the decode: %#x != %#x", got, v)
		}
	})
}

func FuzzU32RoundTrip(f *testing.F) {
	f.Add(uint32(0))
	f.Add(uint32(0xdeadbeef))
	f.Add(^uint32(0))
	f.Fuzz(func(t *testing.T, v uint32) {
		b := PutU32(nil, v)
		if len(b) != 4 {
			t.Fatalf("PutU32 wrote %d bytes", len(b))
		}
		if got := U32(b); got != v {
			t.Fatalf("U32(PutU32(%#x)) = %#x", v, got)
		}
		pre := PutU32([]byte{0x01}, v)
		if got := U32(pre[1:]); got != v {
			t.Fatalf("append-position round trip: %#x != %#x", got, v)
		}
	})
}

// FuzzUintShortRead: arbitrary (short, corrupt, oversized) buffers decode
// without panicking, and short reads behave exactly like the buffer
// zero-padded to word length.
func FuzzUintShortRead(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x11})
	f.Add([]byte{0x11, 0x22, 0x33})
	f.Add(bytes.Repeat([]byte{0xFF}, 16))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var pad8 [8]byte
		copy(pad8[:], raw)
		if got, want := U64(raw), binary.BigEndian.Uint64(pad8[:]); got != want {
			t.Fatalf("U64(%x) = %#x, want zero-padded %#x", raw, got, want)
		}
		var pad4 [4]byte
		copy(pad4[:], raw)
		if got, want := U32(raw), binary.BigEndian.Uint32(pad4[:]); got != want {
			t.Fatalf("U32(%x) = %#x, want zero-padded %#x", raw, got, want)
		}
	})
}

// FuzzWords64RoundTrip: the word split covers the message exactly, the tail
// word is zero-padded, and re-encoding the words reproduces the original
// bytes (plus zero padding).
func FuzzWords64RoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(bytes.Repeat([]byte{0xA5}, 24))
	f.Fuzz(func(t *testing.T, raw []byte) {
		words := AppendWords64(nil, Msg(raw))
		if want := (len(raw) + 7) / 8; len(words) != want {
			t.Fatalf("AppendWords64 split %d bytes into %d words, want %d", len(raw), len(words), want)
		}
		var back []byte
		for _, w := range words {
			back = PutU64(back, w)
		}
		if !bytes.Equal(back[:len(raw)], raw) {
			t.Fatalf("re-encoded words differ from input:\n %x\n %x", back[:len(raw)], raw)
		}
		for i, b := range back[len(raw):] {
			if b != 0 {
				t.Fatalf("padding byte %d is %#x, want 0", i, b)
			}
		}
		// Appending to a non-empty dst is the same decode: identical words,
		// dst prefix kept, and a reused buffer round is byte-identical to
		// the fresh one.
		prefix := []uint64{0xdead, 0xbeef}
		app := AppendWords64(prefix, Msg(raw))
		if len(app) != len(prefix)+len(words) {
			t.Fatalf("AppendWords64 appended %d words, want %d", len(app)-len(prefix), len(words))
		}
		if app[0] != 0xdead || app[1] != 0xbeef {
			t.Fatalf("AppendWords64 disturbed dst prefix: %#x", app[:2])
		}
		for i, w := range words {
			if app[len(prefix)+i] != w {
				t.Fatalf("word %d: appended %#x != fresh %#x", i, app[len(prefix)+i], w)
			}
		}
		reused := AppendWords64(app[:0], Msg(raw))
		for i, w := range words {
			if reused[i] != w {
				t.Fatalf("reused-buffer word %d: %#x != %#x", i, reused[i], w)
			}
		}
	})
}

// FuzzMsgRefCodec: the packed (chunk, offset, length) slot reference
// round-trips every field within its bit budget, stays disjoint from the
// silent (zero) and spill encodings, and the widths cover the arena's
// documented limits.
func FuzzMsgRefCodec(f *testing.F) {
	f.Add(uint16(0), uint32(0), uint32(0))
	f.Add(uint16(1), uint32(9), uint32(12))
	f.Add(uint16(refChunkMask), uint32(refMaxOff), uint32(refMaxLen))
	f.Fuzz(func(t *testing.T, chunk uint16, off, length uint32) {
		c := int(chunk) & refChunkMask
		o := int(off) & refMaxOff
		n := int(length) & refMaxLen
		r := packRef(c, o, n)
		if r == 0 {
			t.Fatal("packed ref collides with the silent encoding (0)")
		}
		if r&refPresent == 0 {
			t.Fatalf("packed ref %#x missing the present bit", uint64(r))
		}
		if r&refSpill != 0 {
			t.Fatalf("packed ref %#x collides with the spill encoding", uint64(r))
		}
		if r.chunk() != c || r.offset() != o || r.length() != n {
			t.Fatalf("round trip (%d,%d,%d) -> (%d,%d,%d)", c, o, n, r.chunk(), r.offset(), r.length())
		}
	})
}

// FuzzMsgArenaRoundTrip: putting arbitrary payloads through the arena gives
// back byte-identical views, nil and empty stay distinguishable, and views
// resolved before later puts survive arena growth.
func FuzzMsgArenaRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{1}, []byte{2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0xFF}, []byte{}, bytes.Repeat([]byte{0xA5}, 300))
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		var arena msgArena
		arena.ensure(1)
		payloads := [][]byte{a, b, c}
		refs := make([]msgRef, len(payloads))
		views := make([]Msg, len(payloads))
		for i, p := range payloads {
			refs[i] = arena.put(0, Msg(p))
			views[i] = arena.get(refs[i])
			// Views resolved now must survive every later put (growth copies).
			for j := 0; j <= i; j++ {
				if !bytes.Equal(views[j], payloads[j]) {
					t.Fatalf("payload %d corrupted after put %d: %x != %x", j, i, views[j], payloads[j])
				}
			}
		}
		for i, p := range payloads {
			got := arena.get(refs[i])
			if !bytes.Equal(got, p) {
				t.Fatalf("payload %d: got %x want %x", i, got, p)
			}
			if got == nil {
				t.Fatalf("payload %d decoded as silent (nil), want non-nil of len %d", i, len(p))
			}
		}
		if got := arena.get(0); got != nil {
			t.Fatalf("silent ref decoded to %x, want nil", got)
		}
		arena.reset()
		if got := arena.get(arena.put(0, Msg(c))); !bytes.Equal(got, c) {
			t.Fatalf("post-reset round trip: %x != %x", got, c)
		}
	})
}
