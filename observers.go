package mobilecongest

import (
	"io"

	"mobilecongest/internal/congest"
)

// Observability surface: observers hook the engine's round lifecycle
// (RoundStart / RoundDelivered / RunDone) and are attached to a Scenario with
// WithObserver, to a Plan's cells with Plan.Observers, or streamed from
// the CLI with `mobilesim -trace`. The engine counts a run's Stats itself
// (Result.Stats, and the Stats every observer's RunDone receives); the
// built-ins below add traces, congestion histograms, and corruption logs.

type (
	// Observer receives round lifecycle events; see congest.Observer.
	Observer = congest.Observer
	// RoundView is the per-round delivered-traffic view handed to observers.
	RoundView = congest.RoundView
	// TraceObserver records every round's delivered traffic in memory.
	TraceObserver = congest.TraceObserver
	// RoundTrace is one captured round: messages plus corrupted edges.
	RoundTrace = congest.RoundTrace
	// TraceMsg is one delivered directed message in a trace.
	TraceMsg = congest.TraceMsg
	// CongestionObserver counts the messages delivered over each edge and
	// builds the per-edge congestion histogram.
	CongestionObserver = congest.CongestionObserver
	// CorruptionLog records the adversary's touches round by round.
	CorruptionLog = congest.CorruptionLog
	// CorruptionEvent is one round's corrupted edge set.
	CorruptionEvent = congest.CorruptionEvent
	// JSONLTrace streams per-round trace lines to a writer as the run executes.
	JSONLTrace = congest.JSONLTrace
)

// NewTraceObserver returns an in-memory per-round traffic trace recorder.
func NewTraceObserver() *TraceObserver { return congest.NewTraceObserver() }

// NewCongestionObserver returns a per-edge congestion histogram builder.
func NewCongestionObserver() *CongestionObserver { return congest.NewCongestionObserver() }

// NewCorruptionLog returns a per-round adversary corruption log.
func NewCorruptionLog() *CorruptionLog { return congest.NewCorruptionLog() }

// NewJSONLTrace returns an observer streaming one JSON line per delivered
// round (plus a run summary line) to w; label tags each line. Concurrent
// runs may share w when it serializes Write calls.
func NewJSONLTrace(w io.Writer, label string) *JSONLTrace { return congest.NewJSONLTrace(w, label) }
