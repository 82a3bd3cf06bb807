package congest

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"mobilecongest/internal/graph"
)

// Wire helpers: compact encodings for the word-sized values the compilers
// exchange, plus the Runtime-wrapping shim compilers use to interpose their
// machinery between a payload protocol and the physical network.

// PutU64 appends a uint64 in big-endian order.
func PutU64(dst []byte, v uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return append(dst, buf[:]...)
}

// U64 reads a big-endian uint64 from the front of b; short buffers read as
// zero-padded (corrupted messages must decode to *something*, never panic).
func U64(b []byte) uint64 {
	var buf [8]byte
	copy(buf[:], b)
	return binary.BigEndian.Uint64(buf[:])
}

// PutU32 appends a uint32 in big-endian order.
func PutU32(dst []byte, v uint32) []byte {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], v)
	return append(dst, buf[:]...)
}

// U32 reads a big-endian uint32, zero-padding short buffers.
func U32(b []byte) uint32 {
	var buf [4]byte
	copy(buf[:], b)
	return binary.BigEndian.Uint32(buf[:])
}

// U64Msg encodes a single word as a message.
func U64Msg(v uint64) Msg { return PutU64(nil, v) }

// AppendWords64 appends the message's 8-byte words (zero-padding the tail)
// to dst and returns the extended slice. In hot loops pass a reusable buffer
// as dst[:0] and the decode reuses its backing array.
func AppendWords64(dst []uint64, m Msg) []uint64 {
	for len(m) >= 8 {
		dst = append(dst, binary.BigEndian.Uint64(m))
		m = m[8:]
	}
	if len(m) > 0 {
		var buf [8]byte
		copy(buf[:], m)
		dst = append(dst, binary.BigEndian.Uint64(buf[:]))
	}
	return dst
}

// WrappedRuntime lets a compiler present a virtual network to a payload
// protocol: every Runtime method is forwarded to Base except the exchange
// barrier, which runs the compiler's simulation of one payload round.
// Compilers implement the simulation as a multi-round subprotocol over Base
// and hand it in as ExchangePortsFn. Payloads may exchange in either form:
// ExchangePorts calls ExchangePortsFn directly, and the map Exchange folds
// its outbox onto ports first.
type WrappedRuntime struct {
	Base Runtime
	// ExchangePortsFn simulates one payload round on the port boundary:
	// out[p] is the payload's message for port p (the p-th neighbour in
	// ascending order), and the returned slice is the payload's port inbox.
	// Implementations own the returned slice and may reuse it per round.
	// They must not keep a reference to an out message past return: the
	// payload may overwrite its buffers as soon as the exchange returns
	// (see Runtime.ExchangePorts).
	ExchangePortsFn func(out []Msg) []Msg
	// ShadowShared, when non-nil, is what the wrapped protocol sees from
	// Shared() — compilers use it to pass the payload's own preprocessing
	// artifact through while keeping their own in the base runtime.
	ShadowShared any
	// InputFn, when non-nil, overrides what the wrapped protocol sees from
	// Input() — the input-side sibling of ShadowShared, used by wrappers
	// that carry their own canonical per-node inputs (the root package's
	// protocol registry entries).
	InputFn func() []byte
	rounds  int
	outBuf  []Msg
}

var _ Runtime = (*WrappedRuntime)(nil)

// ID forwards to the base runtime.
func (w *WrappedRuntime) ID() graph.NodeID { return w.Base.ID() }

// N forwards to the base runtime.
func (w *WrappedRuntime) N() int { return w.Base.N() }

// Neighbors forwards to the base runtime.
func (w *WrappedRuntime) Neighbors() []graph.NodeID { return w.Base.Neighbors() }

// Rand forwards to the base runtime.
func (w *WrappedRuntime) Rand() *rand.Rand { return w.Base.Rand() }

// Input returns InputFn's value when set, else forwards to the base runtime.
func (w *WrappedRuntime) Input() []byte {
	if w.InputFn != nil {
		return w.InputFn()
	}
	return w.Base.Input()
}

// SetOutput forwards to the base runtime.
func (w *WrappedRuntime) SetOutput(v any) { w.Base.SetOutput(v) }

// Shared returns ShadowShared when set, else forwards to the base runtime.
func (w *WrappedRuntime) Shared() any {
	if w.ShadowShared != nil {
		return w.ShadowShared
	}
	return w.Base.Shared()
}

// Round returns the number of simulated (virtual) rounds completed.
func (w *WrappedRuntime) Round() int { return w.rounds }

// Degree forwards to the base runtime.
func (w *WrappedRuntime) Degree() int { return w.Base.Degree() }

// Neighbor forwards to the base runtime.
func (w *WrappedRuntime) Neighbor(p int) graph.NodeID { return w.Base.Neighbor(p) }

// Port forwards to the base runtime.
func (w *WrappedRuntime) Port(v graph.NodeID) int { return w.Base.Port(v) }

// OutBuf returns the wrapper's reusable port-indexed outbox.
func (w *WrappedRuntime) OutBuf() []Msg {
	if w.outBuf == nil {
		w.outBuf = make([]Msg, w.Degree())
	}
	return w.outBuf
}

// Exchange runs the compiler's simulation of one payload round for a map
// payload: the outbox is folded onto ports and the port inbox returned as a
// read-only map.
func (w *WrappedRuntime) Exchange(out map[graph.NodeID]Msg) map[graph.NodeID]Msg {
	buf := w.OutBuf()
	clear(buf) // a map Exchange sends exactly the map's entries
	badTo, hasBad := graph.NodeID(0), false
	for to, m := range out {
		if m == nil {
			continue
		}
		p := w.Port(to)
		if p < 0 {
			// Fold to the smallest bad recipient so the failure below names
			// the same node regardless of map iteration order.
			if !hasBad || to < badTo {
				badTo, hasBad = to, true
			}
			continue
		}
		buf[p] = m
	}
	if hasBad {
		// Preserve the legacy failure mode: forwarding the bad outbox to
		// the base runtime aborts the run with the canonical
		// "sent to non-neighbor" error (it never returns on the engines'
		// runtimes; panic as a last resort for exotic bases).
		clear(buf)
		w.Base.Exchange(out)
		panic(fmt.Sprintf("congest: wrapped exchange to non-neighbor %d", badTo))
	}
	return portsToMap(w.Base.Neighbors(), w.ExchangePorts(buf))
}

// ExchangePorts runs the compiler's simulation of one payload round on the
// port boundary.
func (w *WrappedRuntime) ExchangePorts(out []Msg) []Msg {
	in := w.ExchangePortsFn(out)
	clear(out) // uphold the consumed-outbox contract for reusable bufs
	w.rounds++
	return in
}

// LendOut is a no-op: ExchangePortsFn copies or consumes every payload
// before it returns, so the wrapper never delivers a sender's bytes by
// reference.
func (w *WrappedRuntime) LendOut() {}
