package rsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mobilecongest/internal/graph"
	"mobilecongest/internal/treepack"
)

// TestViewsConsistencyQuick: for random greedy packings, the Views structure
// is internally consistent — parent/child relations are mutual and depths
// increase by one along edges.
func TestViewsConsistencyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(8)
		c := 2
		if n <= 2*c {
			return true
		}
		g := graph.Circulant(n, c)
		p := treepack.GreedyLowDepth(g, graph.NodeID(n-1), 3, 6, 1)
		views := Views(p)
		for v := 0; v < n; v++ {
			for j, tv := range views[v] {
				if tv.Depth < 0 {
					continue
				}
				// Children must list me as their parent with depth+1.
				for _, ch := range tv.Children {
					cv := views[ch][j]
					if cv.Parent != graph.NodeID(v) || cv.Depth != tv.Depth+1 {
						return false
					}
				}
				// My parent (if any) must list me among its children.
				if tv.Parent >= 0 {
					found := false
					for _, sib := range views[tv.Parent][j].Children {
						if sib == graph.NodeID(v) {
							found = true
						}
					}
					if !found {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestCommitterProperties: a committer commits exactly at the threshold and
// never changes afterwards.
func TestCommitterProperties(t *testing.T) {
	f := func(th uint8, noise []byte) bool {
		threshold := 1 + int(th)%6
		c := newCommitter(threshold)
		// Interleave unique noise values with the repeated real value.
		real := []byte{0xAB, 0xCD}
		commits := 0
		for i := 0; i < threshold; i++ {
			if len(noise) > 0 {
				c.Offer([]byte{noise[i%len(noise)], byte(i)}, nil)
			}
			if c.Offer(real, nil) {
				commits++
			}
		}
		if !c.done || string(c.value) != string(real) {
			// Unless the noise happened to repeat to threshold first.
			if c.done {
				return true
			}
			return false
		}
		// Further offers must not change the value.
		c.Offer([]byte{9, 9, 9}, nil)
		return string(c.value) == string(real)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFrameRoundTripQuick: frames survive encode/lookup for arbitrary
// sections, a repeated tree resolves to its last section, and truncated
// tails never panic and never yield a section that runs past the cut.
func TestFrameRoundTripQuick(t *testing.T) {
	f := func(a, b, c []byte, cut uint8) bool {
		if len(a) > 1000 || len(b) > 1000 || len(c) > 1000 {
			return true
		}
		var frame []byte
		frame = appendSection(frame, 1, a)
		frame = appendSection(frame, 2, b)
		if got, ok := section(frame, 1); !ok || string(got) != string(a) {
			return false
		}
		if got, ok := section(frame, 2); !ok || string(got) != string(b) {
			return false
		}
		if _, ok := section(frame, 3); ok {
			return false
		}
		// Last section for a tree wins.
		frame = appendSection(frame, 1, c)
		if got, ok := section(frame, 1); !ok || string(got) != string(c) {
			return false
		}
		// A truncated frame keeps exactly the sections that end before the
		// cut; the final tree-1 section never fits, so tree 1 falls back to a.
		if n := int(cut); n < len(frame) {
			tr := frame[:n]
			got, ok := section(tr, 1)
			if ok != (n >= 4+len(a)) || (ok && string(got) != string(a)) {
				return false
			}
			got, ok = section(tr, 2)
			if ok != (n >= 8+len(a)+len(b)) || (ok && string(got) != string(b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
