package congest

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mobilecongest/internal/graph"
)

// TestStatsObserverMatchesResult: an externally attached StatsObserver must
// accumulate exactly the Stats the Result carries — the internal collector
// is literally the same observer type on the same pipeline.
func TestStatsObserverMatchesResult(t *testing.T) {
	forEngine(t, func(t *testing.T, e Engine) {
		st := NewStatsObserver()
		res, err := e.Run(Config{
			Graph: graph.Circulant(12, 2), Seed: 3,
			Adversary: injector{edge: graph.DirEdge{From: 0, To: 1}},
			Observers: []Observer{st},
		}, floodMax(4))
		if err != nil {
			t.Fatal(err)
		}
		if st.Stats() != res.Stats {
			t.Fatalf("observer stats %+v != result stats %+v", st.Stats(), res.Stats)
		}
		if res.Stats.CorruptedEdgeRounds == 0 {
			t.Fatal("injector should have corrupted edge-rounds")
		}
	})
}

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
	doneErr   error
}

func (r *lifecycleRecorder) RoundStart(round int) { r.starts = append(r.starts, round) }
func (r *lifecycleRecorder) RoundDelivered(round int, _ *RoundView) {
	r.delivered = append(r.delivered, round)
}
func (r *lifecycleRecorder) RunDone(_ Stats, err error) { r.done++; r.doneErr = err }
