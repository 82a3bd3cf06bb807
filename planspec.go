package mobilecongest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// PlanSpec is the declarative JSON mirror of the Plan axis constructors —
// the wire format cmd/mobilesimd accepts and a checked-in experiment
// artifact for reproduction pipelines. Each list field becomes one axis of
// the built Plan, in the canonical label order (topology, n, k, protocol,
// p, adversary, f, engine, bandwidth, reps), so a spec names exactly the
// cells — and therefore exactly the seeds — that the equivalent
// `mobilesim -sweep` invocation does.
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
// any topology: value ranges, the p-axis pairing rule, and every
// topology/protocol/adversary/engine name. It mirrors the axis-constructor
// checks in Plan.cells (a PlanSpec cannot express the duplicate-axis error
// — each dimension is one field), plus the eager name checks the lazy
// constructors defer to build time.
func (sp PlanSpec) Validate() error {
	for _, name := range sp.Topologies {
		if !HasTopology(name) {
			return fmt.Errorf("mobilecongest: plan spec: unknown topology %q (have %v)", name, Topologies())
		}
	}
	for _, name := range sp.Protocols {
		if !HasProtocol(name) {
			return fmt.Errorf("mobilecongest: plan spec: unknown protocol %q (have %v)", name, Protocols())
		}
	}
	for _, name := range sp.Adversaries {
		if !HasAdversary(name) {
			return fmt.Errorf("mobilecongest: plan spec: unknown adversary %q (have %v)", name, Adversaries())
		}
	}
	for _, name := range sp.Engines {
		if _, err := NewEngine(name); err != nil {
			return fmt.Errorf("mobilecongest: plan spec: %w", err)
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

// Cells returns the number of cells the spec expands to — the product of
// its axis lengths after defaulting — without building anything. Servers
// use it for admission control before committing to a sweep.
func (sp PlanSpec) Cells() int {
	reps := sp.Reps
	if reps < 1 {
		reps = 1
	}
	cells := reps
	for _, n := range []int{
		len(defaulted(sp.Topologies, "")),
		len(defaulted(sp.Ns, 0)),
		len(defaulted(sp.Ks, 0)),
		len(defaulted(sp.Adversaries, "")),
		len(defaulted(sp.Fs, 0)),
		len(defaulted(sp.Engines, "")),
	} {
		cells *= n
	}
	if len(sp.Protocols) > 0 {
		cells *= len(sp.Protocols)
		if len(sp.Ps) > 0 {
			cells *= len(sp.Ps)
		}
	}
	if len(sp.Bandwidths) > 0 {
		cells *= len(sp.Bandwidths)
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
// canonical label order — the same lowering `mobilesim -sweep` applies to
// its flags, so spec and flags name identical cells, labels, and seeds.
// Cache and Observers are execution-side concerns the caller installs on
// the returned Plan.
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
