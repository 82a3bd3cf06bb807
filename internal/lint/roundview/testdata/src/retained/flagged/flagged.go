// Fixture: slab-backed views retained past the round that produced them.
package flagged

import "mobilecongest/internal/congest"

var lastInbox []congest.Msg

type sniffer struct {
	inbox []congest.Msg
	view  *congest.RoundView
}

func (s *sniffer) retainInbox(rt congest.Runtime, out []congest.Msg) {
	in := rt.ExchangePorts(out)
	s.inbox = in // want `stored in struct field`
}

func retainGlobal(rt congest.Runtime) {
	lastInbox = rt.OutBuf() // want `package-level variable`
}

func (s *sniffer) RoundStart(round int) {}

func (s *sniffer) RoundDelivered(round int, view *congest.RoundView) {
	s.view = view // want `stored in struct field`
}

func (s *sniffer) RunDone(stats congest.Stats, err error) {}

func leakClosure(rt congest.Runtime, out []congest.Msg) func() congest.Msg {
	in := rt.ExchangePorts(out)
	return func() congest.Msg { return in[0] } // want `escapes via return`
}

type sampler struct {
	sample congest.Msg
}

func (s *sampler) retainGet(tr *congest.RoundTraffic, slot int32) {
	m := tr.Get(slot) // an arena-backed view, rewritten two rounds later
	s.sample = m      // want `stored in struct field`
}

var lastMsg congest.Msg

func retainGetGlobal(tr *congest.RoundTraffic, slot int32) {
	lastMsg = tr.Get(slot) // want `package-level variable`
}

// historian appends the views themselves, not copies: the container is its
// own, but every element still aliases the round's buffers.
type historian struct {
	hist []congest.Msg
}

func (h *historian) keepInbox(rt congest.Runtime, out []congest.Msg) {
	in := rt.ExchangePorts(out)
	h.hist = append(h.hist, in[0]) // want `stored in struct field hist`
}

func (h *historian) keepGet(tr *congest.RoundTraffic, slot int32) {
	h.hist = append(h.hist, tr.Get(slot)) // want `stored in struct field hist`
}
