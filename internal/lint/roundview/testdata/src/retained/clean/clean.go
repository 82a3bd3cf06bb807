// Fixture: the sanctioned ways to use slab views — consume within the
// round or retain a copy — plus a reasoned suppression.
package clean

import "mobilecongest/internal/congest"

type collector struct {
	copies [][]byte
	sizes  []int
}

func (c *collector) consumeWithinRound(rt congest.Runtime, out []congest.Msg) {
	in := rt.ExchangePorts(out)
	for _, m := range in {
		c.sizes = append(c.sizes, len(m))
	}
}

func (c *collector) retainCopies(rt congest.Runtime, out []congest.Msg) {
	in := rt.ExchangePorts(out)
	for _, m := range in {
		if m != nil {
			c.copies = append(c.copies, append([]byte(nil), m...))
		}
	}
}

type stager struct {
	scratch []congest.Msg
}

func (s *stager) stage(rt congest.Runtime, out []congest.Msg) {
	in := rt.ExchangePorts(out)
	//lint:ignore roundview scratch is consumed before this round's handler returns
	s.scratch = in
}

type getSampler struct {
	sample congest.Msg
}

func (g *getSampler) copyGet(tr *congest.RoundTraffic, slot int32) {
	if m := tr.Get(slot); m != nil {
		g.sample = m.Clone() // arena view copied before retention
	}
}

// flipper corrupts into an Alloc result and Sets it within the round: the
// slab is the adversary's to write, and the engine copies what it Sets.
type flipper struct{}

func (flipper) Intercept(round int, tr *congest.RoundTraffic) {
	if m := tr.Get(0); len(m) > 0 {
		out := tr.Alloc(len(m))
		copy(out, m)
		out[0] ^= 0xFF
		tr.Set(0, out)
	}
}

// forge returns an Alloc result to its caller, as a Corruption does.
func forge(tr *congest.RoundTraffic) congest.Msg {
	out := tr.Alloc(9)
	out[8] = 1
	return out
}
