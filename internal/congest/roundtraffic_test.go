package congest

import (
	"bytes"
	"testing"

	"mobilecongest/internal/graph"
)

// slabView returns a run context bound to a 6-node clique whose round
// buffer carries a 16-byte message on every slot, with its RoundTraffic
// begun on that round.
func slabView(t *testing.T) (*RunContext, *RoundTraffic) {
	t.Helper()
	rc := NewRunContext()
	rc.bind(graph.Clique(6))
	for s := int32(0); s < int32(rc.layout.slots()); s++ {
		rc.cur.put(s, bytes.Repeat([]byte{byte(s)}, 16))
	}
	rc.rt.begin(rc.cur)
	return rc, rc.rt
}

// TestAllocResultsNeverOverlap: the results of one round's Alloc calls are
// disjoint and capacity-clipped, also across the slab growing to a new
// array, so writing (or appending to) one never reaches another.
func TestAllocResultsNeverOverlap(t *testing.T) {
	_, rt := slabView(t)
	if m := rt.Alloc(0); m == nil {
		t.Fatal("Alloc(0) on an empty slab = nil, which Set reads as a drop")
	}
	var got []Msg
	for i, n := range []int{7, 1, 0, 64, 3, 4096, 9, 1 << 16, 5} {
		m := rt.Alloc(n)
		if m == nil || len(m) != n || cap(m) != n {
			t.Fatalf("Alloc(%d) = len %d cap %d (nil %v)", n, len(m), cap(m), m == nil)
		}
		for j := range m {
			m[j] = byte(i + 1)
		}
		got = append(got, m)
	}
	rt.Alloc(1)[0] = 0xFF
	for i, m := range got {
		if want := bytes.Repeat([]byte{byte(i + 1)}, len(m)); !bytes.Equal(m, want) {
			t.Fatalf("result %d (len %d) was overwritten by a later Alloc", i, len(m))
		}
	}
}

// TestAllocOverridesSurviveSlabReuse: an override carved from the slab is
// copied into the round when the overlay is applied, so scribbling over the
// slab afterwards, or beginning the next round and allocating again, leaves
// the delivered round unchanged.
func TestAllocOverridesSurviveSlabReuse(t *testing.T) {
	rc, rt := slabView(t)
	fwd, bwd := rt.EdgeSlots(graph.NewEdge(1, 4))
	mf := rt.Alloc(16)
	copy(mf, rt.Get(fwd))
	mf[3] ^= 0x5A
	mb := rt.Alloc(40)
	for i := range mb {
		mb[i] = byte(0xC0 + i)
	}
	rt.Set(fwd, mf)
	rt.Set(bwd, mb)
	wantF, wantB := bytes.Clone(mf), bytes.Clone(mb)
	edges, err := rt.settle(nil)
	if err != nil || len(edges) != 1 {
		t.Fatalf("settle = %v, %v; want one touched edge", edges, err)
	}
	rt.apply()
	delivered := func() (Msg, Msg) { return rc.cur.get(fwd), rc.cur.get(bwd) }
	check := func(when string) {
		t.Helper()
		gotF, gotB := delivered()
		if !bytes.Equal(gotF, wantF) || !bytes.Equal(gotB, wantB) {
			t.Fatalf("%s: delivered %x / %x, want %x / %x", when, gotF, gotB, wantF, wantB)
		}
	}
	check("after apply")
	heldF, heldB := delivered()
	clear(mf)
	clear(mb)
	check("after scribbling over the slab")
	rt.begin(rc.cur)
	for range 8 {
		m := rt.Alloc(40)
		for i := range m {
			m[i] = 0xEE
		}
	}
	check("after the next round's Alloc")
	if !bytes.Equal(heldF, wantF) || !bytes.Equal(heldB, wantB) {
		t.Fatalf("views taken after apply changed: %x / %x", heldF, heldB)
	}
}

// TestAllocReusesSlabAcrossRounds: begin truncates the slab and keeps its
// capacity, so a round that allocates no more than an earlier one carves
// every result from the grown slab.
func TestAllocReusesSlabAcrossRounds(t *testing.T) {
	rc, rt := slabView(t)
	round := func() {
		rt.begin(rc.cur)
		rt.Alloc(4096)
		rt.Alloc(9)
		rt.Alloc(4096)
	}
	round()
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("warm round allocated %.0f times", allocs)
	}
}
