package rewind

import (
	"math/rand"
	"slices"
	"testing"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
	"mobilecongest/internal/resilient"
	"mobilecongest/internal/treepack"
)

// stubRT is a Runtime whose network must never be reached (replay serves
// all rounds from transcripts and aborts at the capture round): it defines
// only the node-local methods replay calls, and the embedded nil Runtime
// panics on anything else.
type stubRT struct {
	congest.Runtime
	id  graph.NodeID
	nbs []graph.NodeID
}

func (s stubRT) ID() graph.NodeID            { return s.id }
func (s stubRT) Neighbors() []graph.NodeID   { return s.nbs }
func (s stubRT) Degree() int                 { return len(s.nbs) }
func (s stubRT) Neighbor(p int) graph.NodeID { return s.nbs[p] }
func (s stubRT) Port(v graph.NodeID) int     { return slices.Index(s.nbs, v) }
func (s stubRT) Rand() *rand.Rand            { return rand.New(rand.NewSource(7)) }
func (s stubRT) Input() []byte               { return congest.PutU64(nil, 5) }

func newStubSim() *rewindSim {
	g := graph.Path(3)
	p := &treepack.Packing{Root: 0, Trees: []*treepack.Tree{treepack.NewTree(3, 0)}}
	sh := resilient.NewShared(g, p)
	rt := stubRT{id: 1, nbs: []graph.NodeID{0, 2}}
	return newRewindSim(rt, Config{R: 3, F: 1}.withDefaults(), sh)
}

// echoPayload sends (received-from-0 + own input) each round.
func echoPayload(rt congest.Runtime) {
	acc := congest.U64(rt.Input())
	for r := 0; r < 3; r++ {
		out := map[graph.NodeID]congest.Msg{}
		for _, v := range rt.Neighbors() {
			out[v] = congest.U64Msg(acc)
		}
		in := rt.Exchange(out)
		if m, ok := in[0]; ok {
			acc += congest.U64(m)
		}
	}
	rt.SetOutput(acc)
}

// echoPortsPayload is echoPayload on the port boundary.
func echoPortsPayload(rt congest.Runtime) {
	acc := congest.U64(rt.Input())
	for r := 0; r < 3; r++ {
		out := rt.OutBuf()
		for p := range out {
			out[p] = congest.U64Msg(acc)
		}
		in := rt.ExchangePorts(out)
		if m := in[rt.Port(0)]; m != nil {
			acc += congest.U64(m)
		}
	}
	rt.SetOutput(acc)
}

// echoPayloads runs each replay case against both exchange forms.
var echoPayloads = []struct {
	name    string
	payload congest.Protocol
}{
	{"map", echoPayload},
	{"ports", echoPortsPayload},
}

func TestReplayCapturesRoundOutbox(t *testing.T) {
	for _, c := range echoPayloads {
		t.Run(c.name, func(t *testing.T) {
			s := newStubSim()
			// Round 0: payload sends its input value (5) to both neighbours.
			out, _, done := s.replay(c.payload, 0)
			if done {
				t.Fatal("payload reported done at round 0")
			}
			for _, v := range []graph.NodeID{0, 2} {
				e, ok := out[v]
				if !ok || !e.present || e.data != 5 || e.length != 8 {
					t.Fatalf("round-0 outbox to %d = %+v", v, e)
				}
			}
		})
	}
}

func TestReplayUsesCommittedTranscripts(t *testing.T) {
	for _, c := range echoPayloads {
		t.Run(c.name, func(t *testing.T) {
			s := newStubSim()
			// Commit round 0: received 10 from node 0, nothing from node 2.
			s.piIn[0] = []entry{{present: true, data: 10, length: 8}}
			s.piIn[2] = []entry{{present: false}}
			s.pi[0] = []entry{{present: true, data: 5, length: 8}}
			s.pi[2] = []entry{{present: true, data: 5, length: 8}}
			out, _, _ := s.replay(c.payload, 1)
			// Round 1 output = 5 + 10.
			if e := out[0]; !e.present || e.data != 15 {
				t.Fatalf("round-1 outbox = %+v, want 15", e)
			}
		})
	}
}

func TestReplayDeterministic(t *testing.T) {
	for _, c := range echoPayloads {
		t.Run(c.name, func(t *testing.T) {
			s := newStubSim()
			s.piIn[0] = []entry{{present: true, data: 3, length: 8}}
			s.piIn[2] = []entry{{present: false}}
			s.pi[0] = []entry{{present: true, data: 5, length: 8}}
			s.pi[2] = []entry{{present: true, data: 5, length: 8}}
			a, _, _ := s.replay(c.payload, 1)
			b, _, _ := s.replay(c.payload, 1)
			for _, v := range []graph.NodeID{0, 2} {
				if a[v] != b[v] {
					t.Fatalf("replay not deterministic at %d: %+v vs %+v", v, a[v], b[v])
				}
			}
		})
	}
}

func TestReplayTerminationDetected(t *testing.T) {
	for _, c := range echoPayloads {
		t.Run(c.name, func(t *testing.T) {
			s := newStubSim()
			// Full 3-round transcript: replay to round 3 runs the payload to
			// completion.
			for r := 0; r < 3; r++ {
				s.piIn[0] = append(s.piIn[0], entry{present: true, data: 1, length: 8})
				s.piIn[2] = append(s.piIn[2], entry{present: false})
				s.pi[0] = append(s.pi[0], entry{present: true, data: 5, length: 8})
				s.pi[2] = append(s.pi[2], entry{present: true, data: 5, length: 8})
			}
			out, result, done := s.replay(c.payload, 3)
			if !done {
				t.Fatal("payload not done after full transcript")
			}
			if len(out) != 0 {
				t.Fatalf("done payload still has outbox %v", out)
			}
			if result.(uint64) != 5+3 {
				t.Fatalf("payload output = %v, want 8", result)
			}
		})
	}
}

func TestEntryWordsRoundTrip(t *testing.T) {
	for _, e := range []entry{{present: true, data: 0xDEADBEEF, length: 8}, {present: false}} {
		m := unpackEntry(e)
		if e.present {
			back := packMsg(m)
			if back != e {
				t.Fatalf("entry round trip: %+v -> %+v", e, back)
			}
		} else if len(m) != 0 {
			t.Fatal("absent entry unpacked to non-empty message")
		}
	}
}
