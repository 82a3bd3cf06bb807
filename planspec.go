package mobilecongest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"mobilecongest/internal/congest"
)

// PlanSpec is the declarative JSON mirror of the Plan axis constructors —
// the wire format cmd/mobilesimd accepts, the form `mobilesim -sweep` fills
// from its flags, and a checked-in experiment artifact for reproduction
// pipelines. Each list field becomes one axis of the built Plan, in the
// canonical label order (topology, n, k, protocol, p, adversary, f, engine,
// bandwidth, reps). The server and the CLI both lower through Plan, so they
// share one set of input checks and a spec names exactly the cells — and
// therefore exactly the seeds — of the equivalent `mobilesim -sweep`
// invocation.
//
// Omitted (or empty) topology/n/k/adversary/f/engine lists take the
// registry defaults, matching the CLI's flag defaults; omitted protocols
// means the default FloodMax workload with no protocol axis, and omitted
// bandwidths means no bandwidth axis. Ps requires Protocols, exactly like
// ProtocolParamAxis requires a ProtocolAxis.
type PlanSpec struct {
	Topologies  []string `json:"topologies,omitempty"`
	Ns          []int    `json:"ns,omitempty"`
	Ks          []int    `json:"ks,omitempty"`
	Protocols   []string `json:"protocols,omitempty"`
	Ps          []int    `json:"ps,omitempty"`
	Adversaries []string `json:"adversaries,omitempty"`
	Fs          []int    `json:"fs,omitempty"`
	Engines     []string `json:"engines,omitempty"`
	Bandwidths  []int    `json:"bandwidths,omitempty"`
	Reps        int      `json:"reps,omitempty"`
	BaseSeed    int64    `json:"base_seed,omitempty"`
	MaxRounds   int      `json:"max_rounds,omitempty"`
	Workers     int      `json:"workers,omitempty"`
}

// ParsePlanSpec decodes a spec strictly: unknown fields, mistyped values,
// and trailing garbage are errors, never panics — the decoder fronts a
// network server. The parsed spec is also validated (Validate), so a
// returned spec always builds a structurally well-formed Plan.
func ParsePlanSpec(data []byte) (PlanSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp PlanSpec
	if err := dec.Decode(&sp); err != nil {
		return PlanSpec{}, fmt.Errorf("mobilecongest: bad plan spec: %w", err)
	}
	if dec.More() {
		return PlanSpec{}, errors.New("mobilecongest: bad plan spec: trailing data after the spec object")
	}
	if err := sp.Validate(); err != nil {
		return PlanSpec{}, err
	}
	return sp, nil
}

// Validate checks the spec's structure and registry names without building
// any topology or axis: value ranges, the p-axis pairing rule, and every
// topology/protocol/adversary/engine name. It mirrors the axis-constructor
// checks in Plan.cells (a PlanSpec cannot express the duplicate-axis error
// — each dimension is one field). It runs before a server's cell cap, so
// it must stay proportional to the spec's size, never to its cell count.
func (sp PlanSpec) Validate() error {
	for _, err := range []error{
		topologies.Check(sp.Topologies...),
		protocols.Check(sp.Protocols...),
		adversaries.Check(sp.Adversaries...),
		congest.Engines.Check(sp.Engines...),
	} {
		if err != nil {
			// The spec's prefix replaces the root registries' own and
			// wraps the engine registry's "congest: ...".
			return fmt.Errorf("mobilecongest: plan spec: %s", strings.TrimPrefix(err.Error(), "mobilecongest: "))
		}
	}
	if len(sp.Ps) > 0 && len(sp.Protocols) == 0 {
		return errors.New("mobilecongest: plan spec: ps requires protocols (the parameter only reaches registry protocols)")
	}
	for _, n := range sp.Ns {
		if n < 1 {
			return fmt.Errorf("mobilecongest: plan spec: n must be >= 1, got %d", n)
		}
	}
	for _, fv := range []struct {
		field string
		vals  []int
	}{{"ks", sp.Ks}, {"ps", sp.Ps}, {"fs", sp.Fs}, {"bandwidths", sp.Bandwidths}} {
		for _, v := range fv.vals {
			if v < 0 {
				return fmt.Errorf("mobilecongest: plan spec: %s values must be >= 0, got %d", fv.field, v)
			}
		}
	}
	if sp.Reps < 0 {
		return fmt.Errorf("mobilecongest: plan spec: reps must be >= 0, got %d", sp.Reps)
	}
	if sp.MaxRounds < 0 {
		return fmt.Errorf("mobilecongest: plan spec: max_rounds must be >= 0, got %d", sp.MaxRounds)
	}
	if sp.Workers < 0 {
		return fmt.Errorf("mobilecongest: plan spec: workers must be >= 0, got %d", sp.Workers)
	}
	return nil
}

// Cells returns the number of cells a valid spec expands to — the product
// of its axis lengths after defaulting, saturated at math.MaxInt — without
// building anything. Servers use it for admission control before
// committing to a sweep.
func (sp PlanSpec) Cells() int {
	cells := max(sp.Reps, 1)
	for _, n := range []int{
		len(sp.Topologies), len(sp.Ns), len(sp.Ks), len(sp.Protocols), len(sp.Ps),
		len(sp.Adversaries), len(sp.Fs), len(sp.Engines), len(sp.Bandwidths),
	} {
		// An omitted list is one default value, or no axis at all.
		n = max(n, 1)
		if cells > math.MaxInt/n {
			return math.MaxInt
		}
		cells *= n
	}
	return cells
}

// defaulted returns s, or the single-axis default def when s is empty.
func defaulted[T any](s []T, def ...T) []T {
	if len(s) == 0 {
		return def
	}
	return s
}

// Plan validates the spec and builds the equivalent Plan, axes in the
// canonical label order. Cache and Observers are execution-side concerns
// the caller installs on the returned Plan.
func (sp PlanSpec) Plan() (Plan, error) {
	if err := sp.Validate(); err != nil {
		return Plan{}, err
	}
	axes := []Axis{
		TopologyAxis(defaulted(sp.Topologies, "clique")...),
		NAxis(defaulted(sp.Ns, 16)...),
		KAxis(defaulted(sp.Ks, 0)...),
	}
	if len(sp.Protocols) > 0 {
		axes = append(axes, ProtocolAxis(sp.Protocols...))
		if len(sp.Ps) > 0 {
			axes = append(axes, ProtocolParamAxis(sp.Ps...))
		}
	}
	axes = append(axes,
		AdversaryAxis(defaulted(sp.Adversaries, "none")...),
		FAxis(defaulted(sp.Fs, 1)...),
		EngineAxis(defaulted(sp.Engines, EngineStep.Name())...),
	)
	if len(sp.Bandwidths) > 0 {
		axes = append(axes, BandwidthAxis(sp.Bandwidths...))
	}
	axes = append(axes, RepsAxis(sp.Reps))
	return Plan{
		Axes:      axes,
		BaseSeed:  sp.BaseSeed,
		MaxRounds: sp.MaxRounds,
		Workers:   sp.Workers,
	}, nil
}

// ReadPlanSpec reads and parses one spec from r (an HTTP body, a checked-in
// spec file).
func ReadPlanSpec(r io.Reader) (PlanSpec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return PlanSpec{}, fmt.Errorf("mobilecongest: reading plan spec: %w", err)
	}
	return ParsePlanSpec(data)
}
