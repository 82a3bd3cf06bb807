package congest

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"mobilecongest/internal/graph"
)

// TestMemoExactKeys derives a thousand keys and checks that a key hits only on an element-wise equal key: a copy in other
// memory hits, while a key that differs in one element, a prefix and an
// extension each miss.
func TestMemoExactKeys(t *testing.T) {
	tab := NewMemoTable[uint16, int]()
	var m Memo
	computed := 0
	derive := func(key []uint16) int {
		return tab.Derive(&m, key, func() int { computed++; return len(key)*100000 + int(key[0]) })
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([][]uint16, 1000)
	for i := range keys {
		keys[i] = make([]uint16, 1+rng.Intn(40))
		for j := range keys[i] {
			keys[i][j] = uint16(rng.Intn(1 << 16))
		}
		keys[i][0] = uint16(i)
		derive(keys[i])
	}
	if computed != len(keys) {
		t.Fatalf("%d computations for %d distinct keys", computed, len(keys))
	}
	for i, key := range keys {
		if got, want := derive(append([]uint16(nil), key...)), len(key)*100000+i; got != want {
			t.Fatalf("key %d: got %d, want %d", i, got, want)
		}
	}
	if computed != len(keys) {
		t.Fatalf("copies of stored keys recomputed: %d computations", computed)
	}
	key := keys[7]
	flipped := append([]uint16(nil), key...)
	flipped[len(flipped)-1] ^= 0x8000
	for _, k := range [][]uint16{flipped, key[:len(key)-1], append(append([]uint16(nil), key...), 0)} {
		if len(k) == 0 {
			continue
		}
		before := computed
		derive(k)
		if computed != before+1 {
			t.Fatalf("key %v hit the entry of %v", k, key)
		}
	}
}

// TestMemoTableCollisions stores distinct keys under one hash, as a hash
// collision would, and checks that each finds its own value and that the
// first value stored for a key stays.
func TestMemoTableCollisions(t *testing.T) {
	var tab memoTable[uint16, int]
	for i := range 5 {
		if v := tab.insert(42, []uint16{uint16(i)}, i); v != i {
			t.Fatalf("insert %d returned %d", i, v)
		}
	}
	for i := range 5 {
		if v, ok := tab.find(42, []uint16{uint16(i)}); !ok || v != i {
			t.Fatalf("key %d: got %d, %v", i, v, ok)
		}
	}
	if _, ok := tab.find(42, []uint16{9}); ok {
		t.Fatal("an absent key with a stored hash was found")
	}
	if v := tab.insert(42, []uint16{3}, 99); v != 3 {
		t.Fatalf("a second insert of key 3 returned %d, want the first value 3", v)
	}
}

// TestMemoStoresFailures checks that a failed derivation is memoized like
// any other result, and that tables with the same types keep separate
// entries.
func TestMemoStoresFailures(t *testing.T) {
	type result struct {
		msg []byte
		ok  bool
	}
	decode, other := NewMemoTable[uint64, result](), NewMemoTable[uint64, result]()
	var m Memo
	calls := 0
	fail := func() result { calls++; return result{} }
	for range 3 {
		if r := decode.Derive(&m, []uint64{1, 2, 3}, fail); r.ok {
			t.Fatal("a stored failure came back as success")
		}
	}
	if calls != 1 {
		t.Fatalf("failure derived %d times, want 1", calls)
	}
	r := other.Derive(&m, []uint64{1, 2, 3}, func() result { calls++; return result{msg: []byte("x"), ok: true} })
	if !r.ok || calls != 2 {
		t.Fatalf("a second table shared the first table's entry (ok=%v, %d calls)", r.ok, calls)
	}
}

// TestMemoConcurrentDerive has goroutines derive the same keys at once
// (run it under -race): every caller of a key gets the one stored value,
// and no key is computed more often than there are callers.
func TestMemoConcurrentDerive(t *testing.T) {
	const workers, keys = 8, 200
	tab := NewMemoTable[uint32, *int]()
	var m Memo
	var computed atomic.Int64
	got := make([][]*int, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w] = make([]*int, keys)
			for i := range keys {
				k := (i*7 + w) % keys
				got[w][k] = tab.Derive(&m, []uint32{uint32(k), 99}, func() *int {
					computed.Add(1)
					v := k
					return &v
				})
			}
		}()
	}
	wg.Wait()
	for k := range keys {
		for w := range workers {
			if got[w][k] != got[0][k] || *got[w][k] != k {
				t.Fatalf("key %d: worker %d got a value other than the stored one", k, w)
			}
		}
	}
	if c := computed.Load(); c < keys || c > workers*keys {
		t.Fatalf("%d computations for %d keys", c, keys)
	}
}

// TestMemoRunScoped runs a protocol whose nodes all derive the same key
// through rt.Memo: within a run the first node computes it and the rest
// hit, a later run in the same context computes it afresh, and a context
// parked between runs holds no entry.
func TestMemoRunScoped(t *testing.T) {
	tab := NewMemoTable[uint64, []byte]()
	var computed atomic.Int64
	proto := func(rt Runtime) {
		v := tab.Derive(rt.Memo(), []uint64{42}, func() []byte {
			computed.Add(1)
			return []byte("shared")
		})
		rt.SetOutput(string(v))
	}
	g := graph.Circulant(64, 2)
	for _, e := range []ShardEngine{{Shards: 1}, {Shards: 4}} {
		rc := NewRunContext()
		for run := range 3 {
			computed.Store(0)
			res, err := e.RunIn(rc, Config{Graph: g, Seed: 1}, proto)
			if err != nil {
				t.Fatal(err)
			}
			for u, o := range res.Outputs {
				if o != "shared" {
					t.Fatalf("%s run %d: node %d output %v", e.Name(), run, u, o)
				}
			}
			c := computed.Load()
			if c < 1 || (e.Shards == 1 && c != 1) {
				t.Fatalf("%s run %d: %d computations", e.Name(), run, c)
			}
			for _, s := range rc.memo.Load().tables {
				if s == nil {
					continue
				}
				st := s.(*memoTable[uint64, []byte])
				if len(st.index) != 0 || len(st.entries) != 0 {
					t.Fatalf("%s run %d: the parked context still holds %d index keys and %d entries", e.Name(), run, len(st.index), len(st.entries))
				}
				for i, en := range st.entries[:cap(st.entries)] {
					if en.key != nil || en.val != nil {
						t.Fatalf("%s run %d: the parked context still pins entry %d", e.Name(), run, i)
					}
				}
			}
		}
		rc.Close()
	}
}

// TestNodeCoreSize pins the per-node state at its size: the engine
// allocates one nodeCore per node when a context binds, and a larger one
// shifts the cold-run allocation of large graphs, where the parked
// coroutines' starting stack size depends on when the garbage collector
// last ran. Nodes reach the run's memo through nodeCore.rc, which also
// serves N, so the memo costs no field of its own.
func TestNodeCoreSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(nodeCore{}); got != 224 {
		t.Fatalf("nodeCore is %d bytes, want 224", got)
	}
}

func ExampleMemoTable() {
	// One table per pure function, declared once.
	squares := NewMemoTable[uint64, uint64]()
	var m Memo // a run's memo; nodes get it from Runtime.Memo
	for range 3 {
		v := squares.Derive(&m, []uint64{12}, func() uint64 {
			fmt.Println("computing")
			return 12 * 12
		})
		fmt.Println(v)
	}
	// Output:
	// computing
	// 144
	// 144
	// 144
}

// TestNodeScratchLifetime follows one NodeScratch through a context's runs:
// each node gets a value of its own, the same one in every later run on
// the same graph (on any engine), with what the node left in it; a rebind
// to another graph, or Close, hands out fresh values; a Memo outside any
// context (the reference simulator's, one per run) starts fresh, and
// ending a run (Memo.release) keeps the values and counts the run.
func TestNodeScratchLifetime(t *testing.T) {
	type visits struct{ n int }
	scratch := NewNodeScratch[visits]()
	type seen struct {
		v *visits
		n int
	}
	proto := func(rt Runtime) {
		v := scratch.Of(rt)
		v.n++
		rt.SetOutput(seen{v, v.n})
	}
	g, other := graph.Clique(5), graph.Clique(5)
	rc := NewRunContext()
	defer rc.Close()
	var prev []seen
	run := func(label string, e Engine, g *graph.Graph, wantVisits int, same bool) {
		t.Helper()
		res, err := e.RunIn(rc, Config{Graph: g, Seed: 1}, proto)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]seen, len(res.Outputs))
		for u, o := range res.Outputs {
			got[u] = o.(seen)
			if got[u].n != wantVisits {
				t.Fatalf("%s: node %d found %d visits, want %d", label, u, got[u].n, wantVisits)
			}
			for w := range u {
				if got[w].v == got[u].v {
					t.Fatalf("%s: nodes %d and %d share a value", label, w, u)
				}
			}
			if prev != nil && (got[u].v == prev[u].v) != same {
				t.Fatalf("%s: node %d kept its value %v, want %v", label, u, !same, same)
			}
		}
		prev = got
	}
	run("first run", ShardEngine{Shards: 1}, g, 1, false)
	run("second run", ShardEngine{Shards: 1}, g, 2, true)
	run("on 3 shards", ShardEngine{Shards: 3}, g, 3, true)
	run("rebound", ShardEngine{Shards: 1}, other, 1, false)
	run("rebound back", ShardEngine{Shards: 1}, g, 1, false)
	rc.Close()
	if rc.memo.Load() != nil {
		t.Fatal("Close kept the run memo")
	}
	run("after Close", ShardEngine{Shards: 3}, g, 1, false)

	m := new(Memo)
	rt := &memoRuntime{m: m, id: 2, n: 5}
	v := scratch.Of(rt)
	v.n = 7
	if m.Runs() != 0 {
		t.Fatalf("a fresh memo has served %d runs, want 0", m.Runs())
	}
	m.release()
	if w := scratch.Of(rt); w != v || w.n != 7 {
		t.Fatal("ending a run dropped a node's scratch")
	}
	if m.Runs() != 1 {
		t.Fatalf("the memo has served %d runs after one ended, want 1", m.Runs())
	}
	if w := scratch.Of(&memoRuntime{m: new(Memo), id: 2, n: 5}); w == v || w.n != 0 {
		t.Fatal("a fresh memo handed out an old value")
	}
}

// memoRuntime is a Runtime that serves only a memo, an ID and N.
type memoRuntime struct {
	Runtime
	m     *Memo
	id, n int
}

func (r *memoRuntime) Memo() *Memo      { return r.m }
func (r *memoRuntime) ID() graph.NodeID { return graph.NodeID(r.id) }
func (r *memoRuntime) N() int           { return r.n }
