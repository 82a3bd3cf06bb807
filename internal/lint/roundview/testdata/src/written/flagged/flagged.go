// Fixture: observers, a protocol and an adversary writing through read-only round data.
package flagged

import (
	"sort"

	"mobilecongest/internal/congest"
)

type scrubber struct{}

func (scrubber) RoundStart(round int)                   {}
func (scrubber) RunDone(stats congest.Stats, err error) {}

func (scrubber) RoundDelivered(round int, view *congest.RoundView) {
	for _, m := range view.All() {
		if len(m) > 0 {
			m[0] = 0 // want `mutates read-only round data`
		}
	}
}

type reorderer struct{}

func (reorderer) RoundStart(round int)                   {}
func (reorderer) RunDone(stats congest.Stats, err error) {}

func (reorderer) RoundDelivered(round int, view *congest.RoundView) {
	cor := view.Corrupted()
	sort.Slice(cor, func(i, j int) bool { return cor[i].U < cor[j].U }) // want `sorts read-only round data in place`
}

type injector struct{}

func (injector) RoundStart(round int)                   {}
func (injector) RunDone(stats congest.Stats, err error) {}

func (injector) RoundDelivered(round int, view *congest.RoundView) {
	for _, m := range view.All() {
		if len(m) > 2 {
			copy(m, []byte{1, 2}) // want `copies into read-only round data`
		}
	}
}

// flipBits is a protocol mutating a received message in place.
func flipBits(rt congest.Runtime, out []congest.Msg) {
	for _, m := range rt.ExchangePorts(out) {
		if len(m) > 0 {
			m[0] ^= 1 // want `mutates read-only round data`
		}
	}
}

// bumpPayload is an adversary helper writing into the intercepted payload.
func bumpPayload(tr *congest.RoundTraffic, slot int32) {
	if m := tr.Get(slot); len(m) > 0 {
		m[0]++ // want `mutates read-only round data`
	}
}
