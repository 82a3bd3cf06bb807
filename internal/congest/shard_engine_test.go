package congest

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
	"weak"

	"mobilecongest/internal/graph"
)

// flipAllAdv is a slot-native adversary that flips a byte of every collected
// message — it dirties the whole touched set, which on any non-trivial graph
// exceeds parallelSettleMin and drives settle through the pool-chunked path.
type flipAllAdv struct{}

func (flipAllAdv) Intercept(_ int, rt *RoundTraffic) {
	for s, m := range rt.All() {
		mm := append(Msg(nil), m...)
		mm[0] ^= 0xff
		rt.Set(s, mm)
	}
}

// shardCorpus is the topology set the shard-count sweep runs over: shard
// boundaries inside rows, degree-0 nodes, a hub-heavy star, and graphs
// smaller than the largest shard count.
func shardCorpus(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := portTestGraphs(t)
	gs["path3"] = graph.Path(3)
	return gs
}

// TestShardEngineMatchesStepAcrossShardCounts pins the determinism contract
// where it is sharpest: for every topology (including degree-0 nodes), shard
// counts 1, 2, 3, 5, and one larger than any n (clamped), fault-free and
// under an everything-dirty adversary, the shard engine's Stats and Outputs
// are identical to the step engine's.
func TestShardEngineMatchesStepAcrossShardCounts(t *testing.T) {
	protos := map[string]func() Protocol{
		"floodmax":  func() Protocol { return floodMax(6) },
		"portflood": func() Protocol { return portFlood(6) },
	}
	advs := map[string]func() Adversary{
		"fault-free": func() Adversary { return nil },
		"flip-all":   func() Adversary { return flipAllAdv{} },
	}
	for gname, g := range shardCorpus(t) {
		for pname, mkProto := range protos {
			for aname, mkAdv := range advs {
				cfg := Config{Graph: g, Seed: 11, Adversary: mkAdv()}
				want, err := ShardEngine{Shards: 1}.Run(cfg, mkProto())
				if err != nil {
					t.Fatalf("%s/%s/%s: step: %v", gname, pname, aname, err)
				}
				for _, shards := range []int{1, 2, 3, 5, 64} {
					got, err := ShardEngine{Shards: shards}.Run(cfg, mkProto())
					if err != nil {
						t.Fatalf("%s/%s/%s shards=%d: %v", gname, pname, aname, shards, err)
					}
					if want.Stats != got.Stats {
						t.Fatalf("%s/%s/%s shards=%d: stats differ\n step  %+v\n shard %+v",
							gname, pname, aname, shards, want.Stats, got.Stats)
					}
					w := fmt.Sprintf("%#v", want.Outputs)
					o := fmt.Sprintf("%#v", got.Outputs)
					if w != o {
						t.Fatalf("%s/%s/%s shards=%d: outputs differ\n step  %s\n shard %s",
							gname, pname, aname, shards, w, o)
					}
				}
			}
		}
	}
}

// TestShardBounds pins the CSR partition invariants: boundaries are monotone,
// cover [0, n], never split below an earlier boundary, and balance by slots —
// on a star, the hub's heavy row may not leave every other shard empty of
// work while also splitting the hub row (rows are atomic).
func TestShardBounds(t *testing.T) {
	rc := NewRunContext()
	star := graph.CompleteBipartite(1, 5) // node 0 has degree 5, leaves degree 1
	rc.bind(star)
	for _, shards := range []int{1, 2, 3, 6, 9} {
		b := rc.shardBounds(shards)
		if len(b) != shards+1 || b[0] != 0 || b[shards] != int32(star.N()) {
			t.Fatalf("shards=%d: bad bounds %v", shards, b)
		}
		for k := 0; k < shards; k++ {
			if b[k] > b[k+1] {
				t.Fatalf("shards=%d: non-monotone bounds %v", shards, b)
			}
		}
	}
	// Caching: same shard count returns the identical slice; a rebind
	// invalidates it.
	b1 := rc.shardBounds(3)
	b2 := rc.shardBounds(3)
	if &b1[0] != &b2[0] {
		t.Fatal("shardBounds(3) not cached")
	}
	rc.bind(graph.Circulant(12, 2))
	b3 := rc.shardBounds(3)
	if b3[3] != 12 {
		t.Fatalf("bounds not recomputed after rebind: %v", b3)
	}
}

// badSender sends a message to a non-neighbor from each node in bad, via the
// map-compat Exchange, in the protocol's first round.
func badSender(bad map[graph.NodeID]bool) Protocol {
	return func(rt Runtime) {
		out := map[graph.NodeID]Msg{}
		if bad[rt.ID()] {
			out[rt.ID()] = U64Msg(1) // self is never a neighbor
		}
		rt.Exchange(out)
	}
}

// TestShardEngineErrorMatchesStep pins abort determinism: when nodes in
// different shards mis-send in the same round, every engine reports the
// lowest offending node — the shard engine surfaces the lowest shard's
// error, never whichever worker lost the race.
func TestShardEngineErrorMatchesStep(t *testing.T) {
	g := graph.Circulant(24, 3)
	bad := map[graph.NodeID]bool{2: true, 20: true} // distinct shards at Shards=3
	_, wantErr := ShardEngine{Shards: 1}.Run(Config{Graph: g, Seed: 5}, badSender(bad))
	if wantErr == nil {
		t.Fatal("step engine accepted a non-neighbor send")
	}
	for _, shards := range []int{1, 2, 3, 8} {
		_, err := ShardEngine{Shards: shards}.Run(Config{Graph: g, Seed: 5}, badSender(bad))
		if err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("shards=%d: error %q, step engine said %q", shards, err, wantErr)
		}
	}
}

// TestShardEnginePanicPropagates pins that a protocol panic on a pool worker
// unwinds the coordinating goroutine (the engine caller), not the worker.
func TestShardEnginePanicPropagates(t *testing.T) {
	g := graph.Circulant(24, 3)
	boom := func(rt Runtime) {
		if rt.ID() == 4 { // inside shard 0 of 3: a pool worker's shard
			panic("shard-test-boom")
		}
		rt.Exchange(nil)
	}
	defer func() {
		if r := recover(); r != "shard-test-boom" {
			t.Fatalf("recovered %v, want the protocol's panic value", r)
		}
	}()
	ShardEngine{Shards: 3}.Run(Config{Graph: g, Seed: 1}, boom)
	t.Fatal("protocol panic did not propagate")
}

// poolWorkers counts the goroutines currently parked in (or running) pool
// p's worker loop, identified by the receiver the traceback prints for
// (*shardPool).work. Counting only p's own workers keeps the check immune to
// unrelated goroutines — other tests' node goroutines winding down, or pools
// of abandoned contexts being released by their GC cleanup.
func poolWorkers(p *shardPool) int {
	frame := []byte(fmt.Sprintf("congest.(*shardPool).work(%p", p))
	count := 0
	for _, g := range goroutineStacks() {
		i := bytes.Index(g, frame)
		if i < 0 {
			continue
		}
		// The address must end here, not continue into a longer one.
		if rest := g[i+len(frame):]; len(rest) > 0 && (rest[0] == ')' || rest[0] == '?') {
			count++
		}
	}
	return count
}

// goroutineStacks returns the traceback of every goroutine, one per element.
func goroutineStacks() [][]byte {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Split(buf[:n], []byte("\n\n"))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitPoolWorkers polls until pool p has exactly want live workers: a freshly
// started worker and one exiting after close both take a moment to settle.
func waitPoolWorkers(t *testing.T, p *shardPool, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := poolWorkers(p)
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool %p has %d live workers, want %d", p, got, want)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestShardEnginePoolReuseAndClose pins the pool lifecycle: repeated runs in
// one context park and reuse the same workers, and Close releases them.
func TestShardEnginePoolReuseAndClose(t *testing.T) {
	g := graph.Circulant(24, 3)
	rc := NewRunContext()
	e := ShardEngine{Shards: 4}
	if _, err := e.RunIn(rc, Config{Graph: g, Seed: 1}, portFlood(3)); err != nil {
		t.Fatal(err)
	}
	pool := rc.pool
	if pool == nil || pool.size != 3 {
		t.Fatalf("expected a pool of 3 parked workers, got %+v", pool)
	}
	waitPoolWorkers(t, pool, 3)
	for i := 0; i < 5; i++ {
		if _, err := e.RunIn(rc, Config{Graph: g, Seed: 1}, portFlood(3)); err != nil {
			t.Fatal(err)
		}
	}
	if rc.pool != pool {
		t.Fatal("pool not reused: a later run in the same context built a new one")
	}
	if got := poolWorkers(pool); got != 3 {
		t.Fatalf("pool not reused: %d live workers after five more runs, want 3", got)
	}
	rc.Close()
	waitPoolWorkers(t, pool, 0)
	// The context stays usable after Close: the next run rebuilds the pool.
	if _, err := e.RunIn(rc, Config{Graph: g, Seed: 1}, portFlood(3)); err != nil {
		t.Fatal(err)
	}
	rebuilt := rc.pool
	if rebuilt == nil || rebuilt == pool {
		t.Fatal("run after Close did not rebuild the pool")
	}
	waitPoolWorkers(t, rebuilt, 3)
	rc.Close()
	waitPoolWorkers(t, rebuilt, 0)
}

// TestReplacedPoolIsCollectable pins the pool's GC cleanup to the pool's
// lifetime on the context: once a resize has replaced a pool and Close has
// stopped its successor, nothing the still-live context holds keeps the
// first pool reachable.
func TestReplacedPoolIsCollectable(t *testing.T) {
	g := graph.Circulant(24, 3)
	rc := NewRunContext()
	run := func(shards int) {
		t.Helper()
		if _, err := (ShardEngine{Shards: shards}).RunIn(rc, Config{Graph: g, Seed: 1}, portFlood(3)); err != nil {
			t.Fatal(err)
		}
	}
	run(4)
	first := weak.Make(rc.pool)
	run(2) // resize: replaces the first pool
	waitPoolWorkers(t, first.Value(), 0)
	rc.Close()
	run(4)
	deadline := time.Now().Add(5 * time.Second)
	for first.Value() != nil {
		if time.Now().After(deadline) {
			t.Fatal("replaced pool still reachable after GC")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	rc.Close()
}

// TestShardEngineZeroAllocExplicitCounts is the shard-engine zero-alloc pin
// at explicit multi-shard counts (forEngine covers Shards:3 via the shared
// TestPortNativeFaultFreeZeroAllocPerRound): extra fault-free rounds in a
// warm reused context cost zero allocations per round, pool dispatch
// included.
func TestShardEngineZeroAllocExplicitCounts(t *testing.T) {
	g := graph.Circulant(24, 3)
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := ShardEngine{Shards: shards}
			rc := NewRunContext()
			defer rc.Close()
			measure := func(rounds int) float64 {
				proto := portFlood(rounds)
				if _, err := e.RunIn(rc, Config{Graph: g, Seed: 3}, proto); err != nil {
					t.Fatal(err)
				}
				return testing.AllocsPerRun(10, func() {
					if _, err := e.RunIn(rc, Config{Graph: g, Seed: 3}, proto); err != nil {
						t.Fatal(err)
					}
				})
			}
			base := measure(4)
			double := measure(8)
			if double > base {
				t.Fatalf("per-round allocation on the shard fault-free path: %.1f allocs at 4 rounds, %.1f at 8", base, double)
			}
		})
	}
}

// TestShardEngineLimitShards pins the oversubscription knob: a context cap
// below GOMAXPROCS bounds the default-count engine's pool, an explicit
// Shards overrides the cap, and cap removal restores the default.
func TestShardEngineLimitShards(t *testing.T) {
	rc := NewRunContext()
	defer rc.Close()
	rc.LimitShards(1)
	if got := (ShardEngine{}).shardCount(rc, 24); got != 1 {
		t.Fatalf("capped default shard count = %d, want 1", got)
	}
	if got := (ShardEngine{Shards: 3}).shardCount(rc, 24); got != 3 {
		t.Fatalf("explicit shard count = %d under cap, want 3", got)
	}
	rc.LimitShards(0)
	if got := (ShardEngine{}).shardCount(rc, 24); got != min(runtime.GOMAXPROCS(0), 24) {
		t.Fatalf("uncapped default shard count = %d, want min(GOMAXPROCS, n)", got)
	}
	if got := (ShardEngine{Shards: 64}).shardCount(rc, 24); got != 24 {
		t.Fatalf("shard count not clamped to n: %d", got)
	}
}

// TestParallelSettleMatchesSequential drives settle through the pool-chunked
// diff and checks it against the sequential verdict on the same overlay: the
// touched-edge set, the changed list, and the delivered traffic must be
// byte-identical. An overlay that sets some slots back to their original
// bytes makes the diff non-trivial.
func TestParallelSettleMatchesSequential(t *testing.T) {
	g := graph.Circulant(24, 3) // 144 slots >= parallelSettleMin
	mkOverlay := func(rt *RoundTraffic) {
		for s, m := range rt.All() {
			if s%3 == 0 {
				rt.Set(s, append(Msg(nil), m...)) // identical bytes: no budget
			} else {
				rt.Set(s, U64Msg(uint64(s)))
			}
		}
	}
	run := func(pool *shardPool) ([]graph.Edge, []int32) {
		rc := NewRunContext()
		rc.bind(g)
		for u := 0; u < g.N(); u++ {
			base := rc.layout.rowStart[u]
			for p := 0; p < int(rc.layout.degree(graph.NodeID(u))); p++ {
				rc.cur.put(base+int32(p), U64Msg(uint64(u)))
			}
		}
		rt := rc.rt
		rt.begin(rc.cur)
		mkOverlay(rt)
		edges, err := rt.settle(pool)
		if err != nil {
			t.Fatal(err)
		}
		return append([]graph.Edge(nil), edges...), append([]int32(nil), rt.changed...)
	}
	wantEdges, wantChanged := run(nil)
	pool := newShardPool(3)
	defer pool.close()
	gotEdges, gotChanged := run(pool)
	if fmt.Sprint(wantEdges) != fmt.Sprint(gotEdges) {
		t.Fatalf("touched edges differ:\n sequential %v\n parallel   %v", wantEdges, gotEdges)
	}
	if fmt.Sprint(wantChanged) != fmt.Sprint(gotChanged) {
		t.Fatalf("changed slots differ:\n sequential %v\n parallel   %v", wantChanged, gotChanged)
	}
	if len(wantEdges) == 0 || len(wantChanged) == 0 {
		t.Fatal("overlay produced no changes; the test is vacuous")
	}
}
