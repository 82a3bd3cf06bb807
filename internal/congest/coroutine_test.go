package congest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mobilecongest/internal/graph"
)

// parkedCoroutines counts the goroutines running (*stepNode).loop for one of
// nodes, identified by the receiver the traceback prints — the node
// coroutines parked between runs or inside a protocol. Like poolWorkers, it
// counts only the given nodes' own coroutines, never the process-wide
// goroutine count, so other contexts' coroutines (parked, or being
// reclaimed by their GC cleanup) cannot disturb it. A coroutine that was
// built but never resumed has not entered loop yet and is not counted.
func parkedCoroutines(nodes []*stepNode) int {
	want := make(map[string]bool, len(nodes))
	for _, s := range nodes {
		want[fmt.Sprintf("%p", s)] = true
	}
	frame := []byte("congest.(*stepNode).loop(")
	count := 0
	for _, g := range goroutineStacks() {
		i := bytes.Index(g, frame)
		if i < 0 {
			continue
		}
		rest := g[i+len(frame):]
		if j := bytes.IndexAny(rest, ",)"); j >= 0 && want[string(rest[:j])] {
			count++
		}
	}
	return count
}

// waitParkedCoroutines polls until nodes have exactly want coroutines in
// loop, running a GC between polls when gc is set (so cleanups can run).
func waitParkedCoroutines(t *testing.T, nodes []*stepNode, want int, gc bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := parkedCoroutines(nodes)
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d node coroutines in loop, want %d", got, want)
		}
		if gc {
			runtime.GC()
		}
		time.Sleep(time.Millisecond)
	}
}

// coroEngines are the engines that run nodes as coroutines.
var coroEngines = []Engine{ShardEngine{Shards: 1}, ShardEngine{Shards: 3}}

// sameResult fails the test unless got equals want in Stats and Outputs.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v != fresh %+v", label, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Fatalf("%s: outputs %v != fresh %v", label, got.Outputs, want.Outputs)
	}
}

// TestCoroutinesParkOnContextUntilClose pins the coroutine lifecycle: a
// context's first run stops the coroutines it built and parks nothing; from
// the second run on, one slab of coroutines parks on the context and every
// later run reuses it; Close stops every one of them, and the context stays
// usable afterwards.
func TestCoroutinesParkOnContextUntilClose(t *testing.T) {
	g := graph.Circulant(24, 3)
	cfg := Config{Graph: g, Seed: 2}
	for _, e := range coroEngines {
		t.Run(e.Name(), func(t *testing.T) {
			want, err := e.RunIn(nil, cfg, silentRandProto(5))
			if err != nil {
				t.Fatal(err)
			}
			rc := NewRunContext()
			defer rc.Close()
			seen := make([]*stepNode, g.N())
			run := func(label string) {
				t.Helper()
				got, err := e.RunIn(rc, cfg, func(rt Runtime) {
					seen[rt.ID()] = rt.(*stepNode)
					silentRandProto(5)(rt)
				})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, label, got, want)
			}
			run("first run")
			if rc.coros != nil {
				t.Fatal("a context's first run parked its coroutines")
			}
			if got := parkedCoroutines(seen); got != 0 {
				t.Fatalf("%d of the first run's coroutines still in loop", got)
			}
			run("second run")
			if rc.coros == nil || len(rc.coros.nodes) != g.N() {
				t.Fatalf("second run parked %+v, want a slab of %d coroutines", rc.coros, g.N())
			}
			slab := append([]*stepNode(nil), rc.coros.nodes...)
			waitParkedCoroutines(t, slab, g.N(), false)
			for i := 0; i < 3; i++ {
				run(fmt.Sprintf("warm run %d", i))
			}
			if !reflect.DeepEqual(rc.coros.nodes, slab) {
				t.Fatal("a warm run rebuilt the coroutine slab")
			}
			if got := parkedCoroutines(slab); got != g.N() {
				t.Fatalf("%d of %d coroutines parked after warm runs", got, g.N())
			}
			rc.Close()
			if got := parkedCoroutines(slab); got != 0 {
				t.Fatalf("%d coroutines still parked after Close", got)
			}
			run("run after Close")
			if rc.coros == nil {
				t.Fatal("a run after Close parked no coroutines")
			}
			waitParkedCoroutines(t, rc.coros.nodes, g.N(), false)
		})
	}
}

// TestDroppedContextCoroutinesReclaimed: a context dropped without Close
// has its parked coroutines stopped by its GC cleanup.
func TestDroppedContextCoroutinesReclaimed(t *testing.T) {
	for _, e := range coroEngines {
		t.Run(e.Name(), func(t *testing.T) {
			slab := func() []*stepNode {
				rc := NewRunContext()
				for i := 0; i < 2; i++ {
					if _, err := e.RunIn(rc, Config{Graph: graph.Circulant(24, 3), Seed: 2}, portFlood(3)); err != nil {
						t.Fatal(err)
					}
				}
				return rc.coros.nodes
			}()
			if got := parkedCoroutines(slab); got != len(slab) {
				t.Fatalf("%d of %d coroutines parked before the context was dropped", got, len(slab))
			}
			waitParkedCoroutines(t, slab, 0, true)
		})
	}
}

// TestEngineRunLeavesNoCoroutines: Engine.Run executes in a throwaway
// context and leaves no node coroutine behind — after a clean run, an
// aborted one, or a panicking one.
func TestEngineRunLeavesNoCoroutines(t *testing.T) {
	g := graph.Circulant(24, 3)
	for _, e := range []Engine{ShardEngine{Shards: 1}, ShardEngine{Shards: 3}} {
		t.Run(e.Name(), func(t *testing.T) {
			seen := make([]*stepNode, g.N())
			record := func(inner Protocol) Protocol {
				return func(rt Runtime) {
					seen[rt.ID()] = rt.(*stepNode)
					inner(rt)
				}
			}
			check := func(label string) {
				t.Helper()
				if got := parkedCoroutines(seen); got != 0 {
					t.Fatalf("%s: %d node coroutines left parked", label, got)
				}
			}
			if _, err := e.Run(Config{Graph: g, Seed: 1}, record(portFlood(3))); err != nil {
				t.Fatal(err)
			}
			check("clean run")
			if _, err := e.Run(Config{Graph: g, Seed: 1, MaxRounds: 2}, record(portFlood(5))); err == nil {
				t.Fatal("round limit not enforced")
			}
			check("aborted run")
			func() {
				defer func() {
					if r := recover(); r != "coroutine-test-boom" {
						t.Fatalf("recovered %v, want the protocol's panic", r)
					}
				}()
				e.Run(Config{Graph: g, Seed: 1}, record(panicAt(7, 1, portFlood(3))))
			}()
			check("panicking run")
		})
	}
}

// TestCoroutineSlabFollowsGraphSize: rebinding a warm context to a larger
// graph extends its slab (keeping the coroutines it has), to a smaller one
// reuses a prefix, and to one under a quarter of the slab's size drops the
// slab for one of that size; results match fresh contexts throughout.
func TestCoroutineSlabFollowsGraphSize(t *testing.T) {
	small, large, smaller, tiny := graph.Circulant(10, 2), graph.Circulant(30, 3), graph.Cycle(8), graph.Cycle(7)
	for _, e := range coroEngines {
		t.Run(e.Name(), func(t *testing.T) {
			rc := NewRunContext()
			defer rc.Close()
			run := func(g *graph.Graph) {
				t.Helper()
				want, err := e.RunIn(nil, Config{Graph: g, Seed: 3}, silentRandProto(4))
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.RunIn(rc, Config{Graph: g, Seed: 3}, silentRandProto(4))
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("n=%d", g.N()), got, want)
			}
			run(small)
			run(small)
			first := append([]*stepNode(nil), rc.coros.nodes...)
			if len(first) != small.N() {
				t.Fatalf("slab of %d coroutines for n=%d", len(first), small.N())
			}
			run(large)
			if len(rc.coros.nodes) != large.N() || !reflect.DeepEqual(rc.coros.nodes[:small.N()], first) {
				t.Fatalf("n=%d: slab not extended in place (len %d)", large.N(), len(rc.coros.nodes))
			}
			grown := append([]*stepNode(nil), rc.coros.nodes...)
			run(smaller)
			run(small)
			if !reflect.DeepEqual(rc.coros.nodes, grown) {
				t.Fatal("a smaller graph rebuilt the slab instead of reusing a prefix")
			}
			if got := parkedCoroutines(grown); got != large.N() {
				t.Fatalf("%d of %d coroutines parked", got, large.N())
			}
			run(tiny)
			if len(rc.coros.nodes) != tiny.N() {
				t.Fatalf("n=%d kept a slab of %d coroutines", tiny.N(), len(rc.coros.nodes))
			}
			if got := parkedCoroutines(grown); got != 0 {
				t.Fatalf("%d coroutines of the dropped slab still parked", got)
			}
			waitParkedCoroutines(t, rc.coros.nodes, tiny.N(), false)
		})
	}
}

// TestParkAndHandOff pins what a parked (closed) context keeps and what a
// hand-off moves: HandOff carries the shard pool's workers and the
// coroutine slab to the next context, which keeps them parked from its
// first run on and extends the slab in place for a larger graph; Close
// releases both and keeps the binding, with its layout, for the next run.
// Every run matches a fresh context.
func TestParkAndHandOff(t *testing.T) {
	small, large := graph.Circulant(12, 2), graph.Circulant(30, 3)
	e := ShardEngine{Shards: 3}
	run := func(rc *RunContext, g *graph.Graph) {
		t.Helper()
		want, err := e.RunIn(nil, Config{Graph: g, Seed: 5}, silentRandProto(4))
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.RunIn(rc, Config{Graph: g, Seed: 5}, silentRandProto(4))
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("n=%d", g.N()), got, want)
	}
	a := NewRunContext()
	defer a.Close()
	run(a, small)
	run(a, small)
	pool, slab := a.pool, append([]*stepNode(nil), a.coros.nodes...)
	layout := a.layout

	b := NewRunContext()
	defer b.Close()
	a.HandOff(b)
	if a.pool != nil || a.coros != nil {
		t.Fatal("HandOff left goroutines on the context it leaves")
	}
	if b.pool != pool || b.coros == nil || !reflect.DeepEqual(b.coros.nodes, slab) {
		t.Fatal("HandOff did not move the shard pool and the coroutine slab")
	}
	waitPoolWorkers(t, pool, pool.size)
	waitParkedCoroutines(t, slab, small.N(), false)
	run(b, large)
	if b.coros == nil || len(b.coros.nodes) != large.N() || !reflect.DeepEqual(b.coros.nodes[:small.N()], slab) {
		t.Fatal("the first run after HandOff did not keep and extend the slab it was handed")
	}
	grown := append([]*stepNode(nil), b.coros.nodes...)
	largeLayout := b.layout

	b.Close()
	if b.pool != nil || b.coros != nil {
		t.Fatal("Close left goroutines on the context")
	}
	if b.g != large || b.layout != largeLayout {
		t.Fatal("Close dropped the context's graph binding or layout")
	}
	waitPoolWorkers(t, pool, 0)
	waitParkedCoroutines(t, grown, 0, false)
	run(a, small)
	if a.g != small || a.layout != layout {
		t.Fatal("a parked context rebuilt its layout for the graph it is bound to")
	}
	run(b, large)
	if b.layout != largeLayout {
		t.Fatal("a closed context rebuilt its layout for the graph it is bound to")
	}
	waitParkedCoroutines(t, b.coros.nodes, large.N(), false)
}

// panicAt wraps inner so that node u panics when it reaches round r.
func panicAt(u graph.NodeID, r int, inner Protocol) Protocol {
	return func(rt Runtime) {
		if rt.ID() != u {
			inner(rt)
			return
		}
		for rt.Round() < r {
			rt.Exchange(nil)
		}
		panic("coroutine-test-boom")
	}
}

// tooLongOutboxAt wraps inner so that node u sends an outbox longer than
// its degree in round r, which aborts the run at collection.
func tooLongOutboxAt(u graph.NodeID, r int, inner Protocol) Protocol {
	return func(rt Runtime) {
		if rt.ID() != u {
			inner(rt)
			return
		}
		for rt.Round() < r {
			rt.ExchangePorts(nil)
		}
		rt.ExchangePorts(make([]Msg, rt.Degree()+1))
	}
}

// TestWarmContextAllocsIndependentOfN is the per-run allocation pin: in a
// warm context, a run of a protocol that reuses payload buffers and outputs
// small ints allocates the same at n=24 as at n=96 — no coroutine, payload
// or other per-node object is allocated per run.
func TestWarmContextAllocsIndependentOfN(t *testing.T) {
	for _, e := range []Engine{ShardEngine{Shards: 1}, ShardEngine{Shards: 2}} {
		t.Run(e.Name(), func(t *testing.T) {
			rc := NewRunContext()
			defer rc.Close()
			// One payload buffer per node, owned by the test so the protocol
			// allocates none per run; each node overwrites its own every round.
			bufs := make([][8]byte, 96)
			proto := func(rt Runtime) {
				best := uint64(rt.ID())
				m := Msg(bufs[rt.ID()][:])
				for r := 0; r < 4; r++ {
					binary.BigEndian.PutUint64(m, best)
					out := rt.OutBuf()
					for p := range out {
						out[p] = m
					}
					for _, mm := range rt.ExchangePorts(out) {
						if mm != nil && U64(mm) > best {
							best = U64(mm)
						}
					}
				}
				rt.SetOutput(int(best % 200))
			}
			perRun := func(n int) float64 {
				cfg := Config{Graph: graph.Circulant(n, 3), Seed: 4}
				for i := 0; i < 2; i++ { // the second run builds the parked slab
					if _, err := e.RunIn(rc, cfg, proto); err != nil {
						t.Fatal(err)
					}
				}
				return testing.AllocsPerRun(10, func() {
					if _, err := e.RunIn(rc, cfg, proto); err != nil {
						t.Fatal(err)
					}
				})
			}
			if a24, a96 := perRun(24), perRun(96); a24 != a96 {
				t.Fatalf("warm-context allocations per run grow with n: %.1f at n=24, %.1f at n=96", a24, a96)
			}
		})
	}
}
