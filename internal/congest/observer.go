package congest

import (
	"encoding/json"
	"io"
	"iter"

	"mobilecongest/internal/graph"
)

// The observer pipeline: anything that wants to watch a run — traffic
// traces, congestion histograms, corruption logs, streaming JSONL —
// implements Observer and is attached through Config.Observers (or the root
// package's WithObserver). The engine counts the run's Stats itself, as its
// gather delivers each round, and hands them to every observer's RunDone.

// Observer receives a run's round lifecycle events. Implementations must not
// mutate anything they are handed; every engine invokes observers at the same
// points with identical views, so observer output is engine-independent (the
// cross-engine equivalence tests assert this for traces).
type Observer interface {
	// RoundStart fires before the engine collects outboxes for the round.
	// When every node terminates during that collection the round is
	// abandoned, so a run's final RoundStart may have no matching
	// RoundDelivered.
	RoundStart(round int)
	// RoundDelivered fires after the adversary boundary and inbox fan-out,
	// with the round's delivered (post-adversary) traffic. The view is only
	// valid during the call; retain copies, not the view.
	RoundDelivered(round int, view *RoundView)
	// RunDone fires exactly once per started run with the final statistics
	// and the run's error (nil on success). A run that fails config
	// validation never starts, so its observers see no events at all.
	RunDone(stats Stats, err error)
}

// RoundView is the read-only view of one round's delivered traffic handed to
// observers. Iteration is in canonical slot order (ascending sender, then
// receiver), identical across engines.
type RoundView struct {
	buf       *roundBuffer
	corrupted []graph.Edge // sorted undirected edges the adversary touched
}

// Graph returns the run's topology.
func (v *RoundView) Graph() *graph.Graph { return v.buf.layout.g }

// Len returns the number of delivered directed messages this round.
func (v *RoundView) Len() int { return v.buf.len() }

// Corrupted returns the undirected edges the adversary touched this round
// (modified, dropped, or injected), sorted; empty on fault-free rounds.
func (v *RoundView) Corrupted() []graph.Edge { return v.corrupted }

// All iterates the delivered messages in canonical order.
func (v *RoundView) All() iter.Seq2[graph.DirEdge, Msg] {
	v.buf.sortTouched()
	return func(yield func(graph.DirEdge, Msg) bool) {
		for _, s := range v.buf.touched {
			if !yield(v.buf.layout.dirEdges[s], v.buf.get(s)) {
				return
			}
		}
	}
}

// TraceMsg is one delivered directed message in a captured trace. Data
// marshals as base64 in JSON.
type TraceMsg struct {
	From graph.NodeID `json:"from"`
	To   graph.NodeID `json:"to"`
	Data Msg          `json:"data,omitempty"`
}

// RoundTrace is one round of a captured trace: the delivered messages in
// canonical order plus the undirected edges the adversary touched.
type RoundTrace struct {
	Round     int               `json:"round"`
	Msgs      []TraceMsg        `json:"msgs"`
	Corrupted [][2]graph.NodeID `json:"corrupted,omitempty"`
}

// TraceObserver records every round's delivered traffic. Payload bytes are
// appended to a run-long arena slab instead of cloned per message, so the
// allocation cost is a few amortized slab growths rather than one alloc per
// delivered message. (Subslices handed out before a growth keep pointing
// into the previous slab generation, which stays valid and immutable.)
type TraceObserver struct {
	rounds []RoundTrace
	arena  []byte
}

// NewTraceObserver returns an empty trace recorder.
func NewTraceObserver() *TraceObserver { return &TraceObserver{} }

// RoundStart implements Observer.
func (o *TraceObserver) RoundStart(int) {}

// RoundDelivered implements Observer.
//
//mobilevet:coldpath tracing observer; attaching it opts into per-round capture allocations
func (o *TraceObserver) RoundDelivered(round int, view *RoundView) {
	rt := RoundTrace{
		Round:     round,
		Msgs:      make([]TraceMsg, 0, view.Len()),
		Corrupted: edgePairs(view.corrupted),
	}
	for de, m := range view.All() {
		start := len(o.arena)
		o.arena = append(o.arena, m...)
		// Full slice expression: later arena appends must reallocate rather
		// than scribble past this message's bytes.
		rt.Msgs = append(rt.Msgs, TraceMsg{From: de.From, To: de.To, Data: Msg(o.arena[start:len(o.arena):len(o.arena)])})
	}
	o.rounds = append(o.rounds, rt)
}

// RunDone implements Observer.
func (o *TraceObserver) RunDone(Stats, error) {}

// Rounds returns the captured trace, one entry per delivered round.
func (o *TraceObserver) Rounds() []RoundTrace { return o.rounds }

func edgePairs(edges []graph.Edge) [][2]graph.NodeID {
	if len(edges) == 0 {
		return nil
	}
	out := make([][2]graph.NodeID, len(edges))
	for i, e := range edges {
		out[i] = [2]graph.NodeID{e.U, e.V}
	}
	return out
}

// CongestionObserver builds a per-edge congestion histogram: for every
// undirected edge, how many directed messages were delivered over it during
// the run (the per-edge breakdown behind Stats.MaxEdgeCongestion).
type CongestionObserver struct {
	g      *graph.Graph
	counts []int
}

// NewCongestionObserver returns an empty congestion histogram.
func NewCongestionObserver() *CongestionObserver { return &CongestionObserver{} }

// RoundStart implements Observer.
func (o *CongestionObserver) RoundStart(int) {}

// RoundDelivered implements Observer.
//
//mobilevet:coldpath allocates its per-edge counts once, on the run's first delivered round
func (o *CongestionObserver) RoundDelivered(_ int, view *RoundView) {
	b := view.buf
	if o.counts == nil {
		o.g = b.layout.g
		o.counts = make([]int, o.g.M())
	}
	for _, s := range b.touched {
		o.counts[b.layout.undir[s]]++
	}
}

// RunDone implements Observer.
func (o *CongestionObserver) RunDone(Stats, error) {}

// PerEdge returns the delivered-message count per undirected edge (every
// graph edge is present, silent ones with 0). Nil before any round.
func (o *CongestionObserver) PerEdge() map[graph.Edge]int {
	if o.counts == nil {
		return nil
	}
	out := make(map[graph.Edge]int, len(o.counts))
	for i, e := range o.g.Edges() {
		out[e] = o.counts[i]
	}
	return out
}

// Histogram returns, for each congestion value, how many edges carried
// exactly that many directed messages. Nil before any round.
func (o *CongestionObserver) Histogram() map[int]int {
	if o.counts == nil {
		return nil
	}
	out := make(map[int]int)
	for _, c := range o.counts {
		out[c]++
	}
	return out
}

// CorruptionEvent records one round's adversary touches.
type CorruptionEvent struct {
	Round int          `json:"round"`
	Edges []graph.Edge `json:"edges"`
}

// CorruptionLog records which undirected edges the adversary touched in each
// round — the run-level corruption transcript the budget accounting is
// summed from. Fault-free rounds produce no event.
type CorruptionLog struct {
	events []CorruptionEvent
	total  int
}

// NewCorruptionLog returns an empty corruption log.
func NewCorruptionLog() *CorruptionLog { return &CorruptionLog{} }

// RoundStart implements Observer.
func (o *CorruptionLog) RoundStart(int) {}

// RoundDelivered implements Observer.
//
//mobilevet:coldpath allocates only on adversarial rounds, which the log exists to record
func (o *CorruptionLog) RoundDelivered(round int, view *RoundView) {
	if len(view.corrupted) == 0 {
		return
	}
	edges := make([]graph.Edge, len(view.corrupted))
	copy(edges, view.corrupted)
	o.events = append(o.events, CorruptionEvent{Round: round, Edges: edges})
	o.total += len(edges)
}

// RunDone implements Observer.
func (o *CorruptionLog) RunDone(Stats, error) {}

// Events returns the per-round corruption events, in round order.
func (o *CorruptionLog) Events() []CorruptionEvent { return o.events }

// Total returns the total corrupted edge-rounds logged — equal to the run's
// Stats.CorruptedEdgeRounds.
func (o *CorruptionLog) Total() int { return o.total }

// JSONLTrace streams one JSON line per delivered round to a writer as the
// run executes, plus a final summary line on RunDone — the cmd/mobilesim
// -trace format. Each line is emitted in a single Write, so concurrent runs
// (e.g. sweep cells) may share a writer that serializes Write calls.
type JSONLTrace struct {
	enc   *json.Encoder
	label string
	err   error
}

// NewJSONLTrace returns an observer streaming to w; label (optional) tags
// every line with the run it belongs to.
func NewJSONLTrace(w io.Writer, label string) *JSONLTrace {
	return &JSONLTrace{enc: json.NewEncoder(w), label: label}
}

type jsonlRound struct {
	Scenario string `json:"scenario,omitempty"`
	RoundTrace
}

type jsonlDone struct {
	Scenario            string `json:"scenario,omitempty"`
	Done                bool   `json:"done"`
	Rounds              int    `json:"rounds"`
	Messages            int    `json:"messages"`
	Bytes               int    `json:"bytes"`
	CorruptedEdgeRounds int    `json:"corrupted_edge_rounds"`
	Error               string `json:"error,omitempty"`
}

// RoundStart implements Observer.
func (o *JSONLTrace) RoundStart(int) {}

// RoundDelivered implements Observer.
//
//mobilevet:coldpath streaming trace observer; JSON encoding allocates by nature
func (o *JSONLTrace) RoundDelivered(round int, view *RoundView) {
	line := jsonlRound{Scenario: o.label, RoundTrace: RoundTrace{
		Round:     round,
		Msgs:      make([]TraceMsg, 0, view.Len()),
		Corrupted: edgePairs(view.corrupted),
	}}
	for de, m := range view.All() {
		// No copy: the message is encoded before the buffer slot is reused.
		line.Msgs = append(line.Msgs, TraceMsg{From: de.From, To: de.To, Data: m})
	}
	o.encode(line)
}

// RunDone implements Observer.
func (o *JSONLTrace) RunDone(stats Stats, err error) {
	line := jsonlDone{
		Scenario:            o.label,
		Done:                true,
		Rounds:              stats.Rounds,
		Messages:            stats.Messages,
		Bytes:               stats.Bytes,
		CorruptedEdgeRounds: stats.CorruptedEdgeRounds,
	}
	if err != nil {
		line.Error = err.Error()
	}
	o.encode(line)
}

func (o *JSONLTrace) encode(v any) {
	if err := o.enc.Encode(v); err != nil && o.err == nil {
		o.err = err
	}
}

// Err returns the first write/encode error, if any.
func (o *JSONLTrace) Err() error { return o.err }
