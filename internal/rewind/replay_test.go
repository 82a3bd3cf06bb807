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
// only the node-local methods newRewindSim and replay call, and the
// embedded nil Runtime panics on anything else.
type stubRT struct {
	congest.Runtime
	id  graph.NodeID
	nbs []graph.NodeID
}

func (s stubRT) ID() graph.NodeID            { return s.id }
func (s stubRT) N() int                      { return 3 }
func (s stubRT) Memo() *congest.Memo         { return new(congest.Memo) }
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
			for p, e := range out {
				if !e.Present || e.Data != 5 || e.Length != 8 {
					t.Fatalf("round-0 outbox on port %d = %+v", p, e)
				}
			}
		})
	}
}

func TestReplayUsesCommittedTranscripts(t *testing.T) {
	for _, c := range echoPayloads {
		t.Run(c.name, func(t *testing.T) {
			s := newStubSim()
			// Commit round 0: received 10 from node 0 (port 0), nothing
			// from node 2 (port 1).
			s.piIn[0] = []resilient.PackedMsg{{Present: true, Data: 10, Length: 8}}
			s.piIn[1] = []resilient.PackedMsg{{Present: false}}
			s.pi[0] = []resilient.PackedMsg{{Present: true, Data: 5, Length: 8}}
			s.pi[1] = []resilient.PackedMsg{{Present: true, Data: 5, Length: 8}}
			out, _, _ := s.replay(c.payload, 1)
			// Round 1 output = 5 + 10.
			if e := out[0]; !e.Present || e.Data != 15 {
				t.Fatalf("round-1 outbox = %+v, want 15", e)
			}
		})
	}
}

func TestReplayDeterministic(t *testing.T) {
	for _, c := range echoPayloads {
		t.Run(c.name, func(t *testing.T) {
			s := newStubSim()
			s.piIn[0] = []resilient.PackedMsg{{Present: true, Data: 3, Length: 8}}
			s.piIn[1] = []resilient.PackedMsg{{Present: false}}
			s.pi[0] = []resilient.PackedMsg{{Present: true, Data: 5, Length: 8}}
			s.pi[1] = []resilient.PackedMsg{{Present: true, Data: 5, Length: 8}}
			a, _, _ := s.replay(c.payload, 1)
			b, _, _ := s.replay(c.payload, 1)
			for p := range a {
				if a[p] != b[p] {
					t.Fatalf("replay not deterministic on port %d: %+v vs %+v", p, a[p], b[p])
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
				s.piIn[0] = append(s.piIn[0], resilient.PackedMsg{Present: true, Data: 1, Length: 8})
				s.piIn[1] = append(s.piIn[1], resilient.PackedMsg{Present: false})
				s.pi[0] = append(s.pi[0], resilient.PackedMsg{Present: true, Data: 5, Length: 8})
				s.pi[1] = append(s.pi[1], resilient.PackedMsg{Present: true, Data: 5, Length: 8})
			}
			out, result, done := s.replay(c.payload, 3)
			if !done {
				t.Fatal("payload not done after full transcript")
			}
			for p, e := range out {
				if e.Present {
					t.Fatalf("done payload still sends %+v on port %d", e, p)
				}
			}
			if result.(uint64) != 5+3 {
				t.Fatalf("payload output = %v, want 8", result)
			}
		})
	}
}

// TestEntryWordsRoundTrip checks the one payload pack/unpack pair the
// compilers share, on an 8-byte, a 3-byte and an absent message.
func TestEntryWordsRoundTrip(t *testing.T) {
	for _, e := range []resilient.PackedMsg{
		{Present: true, Data: 0xDEADBEEF, Length: 8},
		{Present: true, Data: 0x010203, Length: 3},
		{Present: false},
	} {
		m := resilient.UnpackPayload(e)
		if e.Present {
			if back := resilient.PackPayload(m); back != e {
				t.Fatalf("entry round trip: %+v -> %+v", e, back)
			}
		} else if len(m) != 0 {
			t.Fatal("absent entry unpacked to non-empty message")
		}
	}
	if m := resilient.UnpackPayload(resilient.PackedMsg{Present: true, Data: 0x010203, Length: 3}); !slices.Equal(m, congest.Msg{1, 2, 3}) {
		t.Fatalf("3-byte entry unpacked to %x", m)
	}
	if e := resilient.PackPayload(nil); e.Present {
		t.Fatalf("nil message packed to %+v", e)
	}
}
