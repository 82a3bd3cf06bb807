package rewind

import (
	"testing"

	"mobilecongest/internal/resilient"
)

// TestApplyFixesIgnoresForeignFixes checks the fix application of the
// message-correcting phase at node 1 of the path 0-1-2: a fix replaces the
// voted word it addresses, and a fix for another node's edge, for a word
// index at or past initWords, or for an edge index past the graph's is
// ignored.
func TestApplyFixesIgnoresForeignFixes(t *testing.T) {
	s := newStubSim()
	g := s.sh.G
	voted := []initMsg{
		{present: true, data: 1, length: 8, seed: 11, hash: 21, gamma: 2},
		{present: true, data: 2, length: 8, seed: 12, hash: 22, gamma: 2},
	}
	recv := append([]initMsg(nil), voted...)
	s.applyFixes(recv, []fixItem{
		{idx: resilient.DirIndex(g, 0, 1, 1), data: 99},         // port 0's seed word
		{idx: resilient.DirIndex(g, 0, 1, initWords), data: 98}, // no such word
		{idx: resilient.DirIndex(g, 1, 2, 0), data: 97},         // node 1's own outgoing edge
		{idx: resilient.DirIndex(g, 1, 0, 2), data: 96},         // the reverse of port 0's edge
		{idx: uint32(g.M())<<5 | 1<<1, data: 95},                // no such edge
	})
	want := append([]initMsg(nil), voted...)
	want[0].seed = 99
	for p := range recv {
		if recv[p] != want[p] {
			t.Errorf("port %d: got %+v, want %+v", p, recv[p], want[p])
		}
	}
}
