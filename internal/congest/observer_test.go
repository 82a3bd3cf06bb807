package congest

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mobilecongest/internal/graph"
)

// TestStatsObserverMatchesResult: an externally attached observer must
// receive in RunDone exactly the Stats the Result carries, and both must
// equal a recount of the trace it saw.
func TestStatsObserverMatchesResult(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		tr, rec := NewTraceObserver(), &lifecycleRecorder{}
		res, err := e.Run(Config{
			Graph: graph.Circulant(12, 2), Seed: 3,
			Adversary: injector{edge: graph.DirEdge{From: 0, To: 1}},
			Observers: []Observer{tr, rec},
		}, floodMax(4))
		if err != nil {
			t.Fatal(err)
		}
		if rec.done != 1 || rec.doneStats != res.Stats {
			t.Fatalf("observer stats %+v (%d RunDone calls) != result stats %+v", rec.doneStats, rec.done, res.Stats)
		}
		if want := recountStats(tr.Rounds()); res.Stats != want {
			t.Fatalf("result stats %+v, the trace recounts %+v", res.Stats, want)
		}
		if res.Stats.CorruptedEdgeRounds == 0 {
			t.Fatal("injector should have corrupted edge-rounds")
		}
	})
}

// TestRunStatsCountDeliveredTraffic checks the Stats the engine counts in
// its gather pass against a recount of the delivered traffic a
// TraceObserver saw, on every exit path of a run: a normal end, the round
// limit, a budget abort and a bandwidth abort. It runs them one after
// another in one context per shard count, so the counts a run leaves
// behind must not leak into the next: 1 to 4 shards over a lollipop graph
// whose slot-balanced shards hold unequal node counts, and one shard per
// node. The adversary drops each round's largest message, shrinks another
// and injects on a silent edge, so the delivered traffic differs from the
// collected; every third node lends its outbox, so spilled refs are
// counted too. Result.Stats, when the run succeeds, and the Stats RunDone
// receives must equal the recount.
func TestRunStatsCountDeliveredTraffic(t *testing.T) {
	g := lollipop(5, 7)
	const rounds = 6
	cases := []struct {
		name      string
		maxRounds int
		adv       statsAdversary
		bandwidth int
		oversize  bool // node 8 sends past the bandwidth in round 3
		wantErr   error
	}{
		{name: "end", maxRounds: 100, adv: statsAdversary{abortRound: -1}},
		{name: "round-limit", maxRounds: 4, adv: statsAdversary{abortRound: -1}, wantErr: ErrRoundLimit},
		{name: "budget", maxRounds: 100, adv: statsAdversary{abortRound: 3}, wantErr: ErrBudgetExceeded},
		{name: "bandwidth", maxRounds: 100, adv: statsAdversary{abortRound: -1}, bandwidth: 64, oversize: true, wantErr: ErrBandwidthExceeded},
		{name: "end-again", maxRounds: 100, adv: statsAdversary{abortRound: -1}},
	}
	for _, shards := range []int{1, 2, 3, 4, 1 << 16} {
		rc := NewRunContext()
		if shards > 1 && shards <= 4 {
			rc.bind(g)
			b := rc.shardBounds(shards)
			if sizes := shardSizes(b); slices.Min(sizes) == slices.Max(sizes) {
				t.Fatalf("%d shards: bounds %v split the nodes evenly", shards, b)
			}
		}
		e := ShardEngine{Shards: shards}
		for _, c := range cases {
			tr, rec := NewTraceObserver(), &lifecycleRecorder{}
			oversize := c.oversize
			res, err := e.RunIn(rc, Config{
				Graph: g, Seed: 7, MaxRounds: c.maxRounds, Bandwidth: c.bandwidth,
				Adversary: c.adv, Observers: []Observer{tr, rec},
			}, func(rt Runtime) {
				u := int(rt.ID())
				for r := 0; r < rounds; r++ {
					out := rt.OutBuf()
					for p := range out {
						switch n := (u + 2*r + 3*p) % 7; {
						case n == 0:
							out[p] = nil
						case oversize && u == 8 && r == 3:
							out[p] = make(Msg, 20)
						case u == 0 && p == 0:
							// The round's one largest message, which the
							// adversary drops.
							out[p] = make(Msg, 6+r%2)
						default:
							// Fresh bytes every round, so a lent outbox stays
							// unchanged until every receiver has moved on.
							m := make(Msg, n-1)
							for i := range m {
								m[i] = byte(u + r + p + i)
							}
							out[p] = m
						}
					}
					if u%3 == 0 {
						rt.LendOut()
					}
					rt.ExchangePorts(out)
				}
			})
			if !errors.Is(err, c.wantErr) || (err == nil) != (c.wantErr == nil) {
				t.Fatalf("%d shards, %s: err = %v, want %v", shards, c.name, err, c.wantErr)
			}
			want := recountStats(tr.Rounds())
			if want.Messages == 0 || want.CorruptedEdgeRounds == 0 {
				t.Fatalf("%d shards, %s: the recount saw no traffic or no corruption: %+v", shards, c.name, want)
			}
			if rec.done != 1 || rec.doneStats != want {
				t.Fatalf("%d shards, %s: RunDone (%d calls) got %+v, the trace recounts %+v", shards, c.name, rec.done, rec.doneStats, want)
			}
			if err == nil && res.Stats != want {
				t.Fatalf("%d shards, %s: Result.Stats %+v, the trace recounts %+v", shards, c.name, res.Stats, want)
			}
		}
		rc.Close()
	}
}

// lollipop returns a clique on the first k nodes with a path of tail more
// hanging off its last node: the clique's nodes own most of the slots.
func lollipop(k, tail int) *graph.Graph {
	g := graph.New(k + tail)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	for u := k - 1; u < k+tail-1; u++ {
		g.AddEdge(graph.NodeID(u), graph.NodeID(u+1))
	}
	return g
}

// shardSizes returns the node count of each shard of bounds.
func shardSizes(bounds []int32) []int32 {
	sizes := make([]int32, len(bounds)-1)
	for k := range sizes {
		sizes[k] = bounds[k+1] - bounds[k]
	}
	return sizes
}

// recountStats recounts a run's Stats from its delivered trace.
func recountStats(rounds []RoundTrace) Stats {
	st := Stats{Rounds: len(rounds)}
	perEdge := make(map[graph.Edge]int)
	for _, r := range rounds {
		st.CorruptedEdgeRounds += len(r.Corrupted)
		for _, m := range r.Msgs {
			st.Messages++
			st.Bytes += len(m.Data)
			st.MaxMsgBytes = max(st.MaxMsgBytes, len(m.Data))
			e := graph.NewEdge(m.From, m.To)
			perEdge[e]++
			st.MaxEdgeCongestion = max(st.MaxEdgeCongestion, perEdge[e])
		}
	}
	return st
}

// statsAdversary drops each round's largest collected message, shrinks
// another by a byte and injects on a silent edge. In round abortRound it
// also rewrites every other message, past its budget of 3 edges.
type statsAdversary struct{ abortRound int }

func (a statsAdversary) Intercept(round int, tr *RoundTraffic) {
	largest, shrink := int32(-1), int32(-1)
	for s, m := range tr.All() {
		if largest < 0 || len(m) > len(tr.Get(largest)) {
			largest = s
		}
	}
	for s, m := range tr.All() {
		if s != largest && len(m) >= 2 {
			shrink = s
			break
		}
	}
	for s := int32(round); s < int32(tr.Slots()); s++ {
		if tr.Get(s) == nil {
			inj := tr.Alloc(5)
			copy(inj, "forge")
			tr.Set(s, inj)
			break
		}
	}
	if round == a.abortRound {
		for s, m := range tr.All() {
			if len(m) != 8 {
				tr.Set(s, U64Msg(uint64(s)))
			}
		}
	}
	if largest >= 0 {
		tr.Set(largest, nil)
	}
	if shrink >= 0 {
		m := tr.Get(shrink)
		tr.Set(shrink, m[:len(m)-1])
	}
}

func (statsAdversary) PerRoundEdges() int { return 3 }

// TestTraceObserverRecords: the trace holds every delivered round in
// canonical (sender, receiver) order with the exact payloads.
func TestTraceObserverRecords(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		tr := NewTraceObserver()
		g := graph.Path(3)
		proto := func(rt Runtime) {
			for r := 0; r < 2; r++ {
				out := make(map[graph.NodeID]Msg)
				for _, v := range rt.Neighbors() {
					out[v] = PutU32(nil, uint32(rt.ID())<<8|uint32(r))
				}
				rt.Exchange(out)
			}
		}
		res, err := e.Run(Config{Graph: g, Seed: 1, Observers: []Observer{tr}}, proto)
		if err != nil {
			t.Fatal(err)
		}
		rounds := tr.Rounds()
		if len(rounds) != res.Stats.Rounds {
			t.Fatalf("trace has %d rounds, stats say %d", len(rounds), res.Stats.Rounds)
		}
		for r, rt := range rounds {
			if rt.Round != r {
				t.Fatalf("round %d recorded as %d", r, rt.Round)
			}
			// Path 0-1-2: directed messages in canonical order.
			wantEdges := []graph.DirEdge{{From: 0, To: 1}, {From: 1, To: 0}, {From: 1, To: 2}, {From: 2, To: 1}}
			if len(rt.Msgs) != len(wantEdges) {
				t.Fatalf("round %d has %d msgs, want %d", r, len(rt.Msgs), len(wantEdges))
			}
			for i, m := range rt.Msgs {
				if m.From != wantEdges[i].From || m.To != wantEdges[i].To {
					t.Fatalf("round %d msg %d on (%d,%d), want %v", r, i, m.From, m.To, wantEdges[i])
				}
				if got := U32(m.Data); got != uint32(m.From)<<8|uint32(r) {
					t.Fatalf("round %d msg %d payload %x", r, i, got)
				}
			}
			if rt.Corrupted != nil {
				t.Fatalf("fault-free round %d has corrupted edges", r)
			}
		}
	})
}

// TestCongestionObserverHistogram: per-edge counts and their histogram match
// a hand-computable workload.
func TestCongestionObserverHistogram(t *testing.T) {
	g := graph.Path(3) // edges {0,1}, {1,2}
	co := NewCongestionObserver()
	proto := func(rt Runtime) {
		for r := 0; r < 5; r++ {
			out := map[graph.NodeID]Msg{}
			if rt.ID() == 0 {
				out[1] = U64Msg(1)
			}
			rt.Exchange(out)
		}
	}
	if _, err := (ShardEngine{Shards: 1}).Run(Config{Graph: g, Seed: 1, Observers: []Observer{co}}, proto); err != nil {
		t.Fatal(err)
	}
	want := map[graph.Edge]int{{U: 0, V: 1}: 5, {U: 1, V: 2}: 0}
	if got := co.PerEdge(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PerEdge() = %v, want %v", got, want)
	}
	wantHist := map[int]int{0: 1, 5: 1}
	if got := co.Histogram(); !reflect.DeepEqual(got, wantHist) {
		t.Fatalf("Histogram() = %v, want %v", got, wantHist)
	}
}

// TestCorruptionLogEvents: the log records exactly the rounds and undirected
// edges the adversary touched, and its total matches the stats.
func TestCorruptionLogEvents(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		cl := NewCorruptionLog()
		adv := &spendExactly{total: 2, edge: graph.DirEdge{From: 1, To: 0}}
		res, err := e.Run(Config{
			Graph: graph.Cycle(5), Seed: 2, Adversary: adv,
			Observers: []Observer{cl},
		}, floodMax(4))
		if err != nil {
			t.Fatal(err)
		}
		events := cl.Events()
		if len(events) != 2 {
			t.Fatalf("got %d events, want 2: %+v", len(events), events)
		}
		for i, ev := range events {
			if ev.Round != i {
				t.Fatalf("event %d in round %d", i, ev.Round)
			}
			if len(ev.Edges) != 1 || ev.Edges[0] != (graph.Edge{U: 0, V: 1}) {
				t.Fatalf("event %d edges %v, want [{0 1}]", i, ev.Edges)
			}
		}
		if cl.Total() != res.Stats.CorruptedEdgeRounds {
			t.Fatalf("log total %d != stats %d", cl.Total(), res.Stats.CorruptedEdgeRounds)
		}
	})
}

// TestJSONLTraceStream: every emitted line is valid JSON; rounds carry the
// label and message list, and the final line is the run summary.
func TestJSONLTraceStream(t *testing.T) {
	var buf bytes.Buffer
	jt := NewJSONLTrace(&buf, "unit")
	res, err := (ShardEngine{Shards: 1}).Run(Config{
		Graph: graph.Path(2), Seed: 1, Observers: []Observer{jt},
	}, floodMax(3))
	if err != nil {
		t.Fatal(err)
	}
	if jt.Err() != nil {
		t.Fatal(jt.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != res.Stats.Rounds+1 {
		t.Fatalf("got %d lines, want %d rounds + 1 summary", len(lines), res.Stats.Rounds)
	}
	for i, line := range lines[:len(lines)-1] {
		var row struct {
			Scenario string `json:"scenario"`
			Round    int    `json:"round"`
			Msgs     []struct {
				From int    `json:"from"`
				To   int    `json:"to"`
				Data []byte `json:"data"`
			} `json:"msgs"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i, err, line)
		}
		if row.Scenario != "unit" || row.Round != i || len(row.Msgs) != 2 {
			t.Fatalf("line %d wrong: %s", i, line)
		}
		if len(row.Msgs[0].Data) != 8 {
			t.Fatalf("line %d payload not 8 bytes after base64: %s", i, line)
		}
	}
	var done struct {
		Done   bool `json:"done"`
		Rounds int  `json:"rounds"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &done); err != nil || !done.Done || done.Rounds != res.Stats.Rounds {
		t.Fatalf("bad summary line: %s (err %v)", lines[len(lines)-1], err)
	}
}

// TestRunDoneFiresOnError: observers must see RunDone exactly once with the
// run error even when the engine aborts (budget violation here).
func TestRunDoneFiresOnError(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		rec := &lifecycleRecorder{}
		_, err := e.Run(Config{
			Graph: graph.Clique(4), Seed: 1, Adversary: corruptAll{},
			Observers: []Observer{rec},
		}, floodMax(2))
		if err == nil {
			t.Fatal("corruptAll should exceed its budget")
		}
		if rec.done != 1 || rec.doneErr == nil {
			t.Fatalf("RunDone fired %d times (err %v), want once with the run error", rec.done, rec.doneErr)
		}
	})
}

// TestObserverLifecycleOrdering: RoundStart precedes its RoundDelivered; a
// run's final RoundStart may be unmatched (the round every node terminated
// in); RunDone is last.
func TestObserverLifecycleOrdering(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		rec := &lifecycleRecorder{}
		res, err := e.Run(Config{
			Graph: graph.Cycle(4), Seed: 1, Observers: []Observer{rec},
		}, floodMax(3))
		if err != nil {
			t.Fatal(err)
		}
		if rec.done != 1 {
			t.Fatalf("RunDone fired %d times", rec.done)
		}
		if len(rec.delivered) != res.Stats.Rounds {
			t.Fatalf("%d RoundDelivered, stats say %d", len(rec.delivered), res.Stats.Rounds)
		}
		// floodMax(3) runs 3 full rounds; the 4th RoundStart sees every node
		// terminate, so starts = delivered + 1 on both engines.
		if len(rec.starts) != len(rec.delivered)+1 {
			t.Fatalf("%d RoundStart for %d RoundDelivered", len(rec.starts), len(rec.delivered))
		}
		for i, r := range rec.delivered {
			if rec.starts[i] != r || r != i {
				t.Fatalf("lifecycle misordered: starts %v delivered %v", rec.starts, rec.delivered)
			}
		}
	})
}

// lifecycleRecorder records the raw observer event sequence.
type lifecycleRecorder struct {
	starts    []int
	delivered []int
	done      int
	doneStats Stats
	doneErr   error
}

func (r *lifecycleRecorder) RoundStart(round int) { r.starts = append(r.starts, round) }
func (r *lifecycleRecorder) RoundDelivered(round int, _ *RoundView) {
	r.delivered = append(r.delivered, round)
}
func (r *lifecycleRecorder) RunDone(st Stats, err error) {
	r.done++
	r.doneStats, r.doneErr = st, err
}
