package mobilecongest

import (
	"io"

	"mobilecongest/internal/congest"
)

// Observability surface: observers hook the engine's round lifecycle
// (RoundStart / RoundDelivered / RunDone) and are attached to a Scenario with
// WithObserver, to a Plan with CaptureTrace or Observers, or streamed from
// the CLI with `mobilesim -trace`. The engine's own Stats is itself a
// StatsObserver it installs internally — the built-ins below add traces,
// congestion histograms, and corruption logs on the same pipeline.

type (
	// Observer receives round lifecycle events; see congest.Observer.
	Observer = congest.Observer
	// RoundView is the per-round delivered-traffic view handed to observers.
	RoundView = congest.RoundView
	// StatsObserver accumulates run statistics (what Result.Stats carries).
	StatsObserver = congest.StatsObserver
	// TraceObserver records every round's delivered traffic in memory.
	TraceObserver = congest.TraceObserver
	// RoundTrace is one captured round: messages plus corrupted edges.
	RoundTrace = congest.RoundTrace
	// TraceMsg is one delivered directed message in a trace.
	TraceMsg = congest.TraceMsg
	// CongestionObserver builds a per-edge congestion histogram plus
	// per-round bandwidth records (set BudgetBits to count would-be
	// violations observationally).
	CongestionObserver = congest.CongestionObserver
	// BandwidthRound is one round's bandwidth record from a
	// CongestionObserver: message count, max/mean bits per message, and
	// violations against the observer's BudgetBits.
	BandwidthRound = congest.BandwidthRound
	// CorruptionLog records the adversary's touches round by round.
	CorruptionLog = congest.CorruptionLog
	// CorruptionEvent is one round's corrupted edge set.
	CorruptionEvent = congest.CorruptionEvent
	// JSONLTrace streams per-round trace lines to a writer as the run executes.
	JSONLTrace = congest.JSONLTrace
)

// NewStatsObserver returns an independent statistics accumulator.
func NewStatsObserver() *StatsObserver { return congest.NewStatsObserver() }

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
