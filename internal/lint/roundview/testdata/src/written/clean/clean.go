// Fixture: observers treating the delivered round as read-only — retaining
// copies and sorting only their own slices — plus a reasoned suppression.
package clean

import (
	"sort"

	"mobilecongest/internal/congest"
	"mobilecongest/internal/graph"
)

type archiver struct {
	rounds [][]graph.Edge
	bytes  int
}

func (a *archiver) RoundStart(round int)                   {}
func (a *archiver) RunDone(stats congest.Stats, err error) {}

func (a *archiver) RoundDelivered(round int, view *congest.RoundView) {
	for _, m := range view.All() {
		a.bytes += len(m)
	}
	cor := append([]graph.Edge(nil), view.Corrupted()...)
	sort.Slice(cor, func(i, j int) bool {
		if cor[i].U != cor[j].U {
			return cor[i].U < cor[j].U
		}
		return cor[i].V < cor[j].V
	})
	a.rounds = append(a.rounds, cor)
}

type redactor struct{}

func (redactor) RoundStart(round int)                   {}
func (redactor) RunDone(stats congest.Stats, err error) {}

func (redactor) RoundDelivered(round int, view *congest.RoundView) {
	for _, m := range view.All() {
		if len(m) > 0 {
			//lint:ignore roundview this fixture observer runs last and owns teardown of the round buffer
			m[0] = 0
		}
	}
}

// fillOutbox writes into the OutBuf slots, which the node owns until it
// exchanges them.
func fillOutbox(rt congest.Runtime, payload congest.Msg) []congest.Msg {
	out := rt.OutBuf()
	for p := range out {
		out[p] = payload
	}
	return rt.ExchangePorts(out)
}

// flipCopy corrupts a clone of the intercepted payload, never the arena.
func flipCopy(tr *congest.RoundTraffic, slot int32) {
	if c := tr.Get(slot).Clone(); len(c) > 0 {
		c[0] ^= 1
		tr.Set(slot, c)
	}
}
