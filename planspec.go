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

// PlanSpec describes a parameter sweep: one list of values per dimension,
// and the Plan runs their cross product. It is the only way to describe one,
// in Go (as Plan's embedded spec) or as JSON: the wire format cmd/mobilesimd
// accepts, the form `mobilesim -sweep` fills from its flags, and a
// checked-in experiment artifact for reproduction pipelines. The server,
// the CLI and Go callers all run it through Plan, so they share one set of
// input checks and one spec names exactly the same cells, and therefore the
// same seeds, wherever it runs.
//
// Cells come in the canonical order topology, n, k, protocol, p, adversary,
// f, engine, bandwidth, reps: the first varies slowest and the reps
// fastest. Omitted (or empty) topology/n/k/adversary/f/engine lists take
// the registry defaults, matching the CLI's flag defaults: clique, 16, 0,
// none, 1 and step. Omitted protocols means the default FloodMax workload
// over diameter+1 rounds, and omitted bandwidths means no enforced budget.
// Ps requires Protocols: the parameter only reaches registry protocols.
//
// A cell's record name is its label, "topo=T,n=N,k=K,adv=A,f=F,engine=E",
// then ",rep=R". The ",proto=P" and ",p=P" fragments follow k, and ",bw=B"
// follows the engine, only when the protocols, ps and bandwidths lists are
// given, so a spec that leaves them out keeps the labels, and seeds, it had
// before those dimensions existed. The seed is CellSeed over the label up
// to f: the engine and the bandwidth budget are execution details, so one
// simulation cell draws the same randomness on every engine and under every
// budget, and the budget varies only which cells abort with a bandwidth
// violation.
//
// Reps repeats every cell with distinct seeds (values below 1 mean 1).
// BaseSeed feeds every cell's seed. MaxRounds bounds each run (0 = engine
// default); it is one value for the whole sweep, so sweep it as one spec per
// value. Workers is the number of concurrent cell runners (0 = GOMAXPROCS).
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

// Validate checks the spec's value ranges, the ps-requires-protocols rule,
// and every topology/protocol/adversary/engine name, without building
// anything. Plan runs it before expanding any cell. It runs before a
// server's cell cap, so it must stay proportional to the spec's size, never
// to its cell count.
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
// of its list lengths after defaulting, saturated at math.MaxInt — without
// building anything. Servers use it for admission control before
// committing to a sweep.
func (sp PlanSpec) Cells() int {
	cells := max(sp.Reps, 1)
	for _, n := range []int{
		len(sp.Topologies), len(sp.Ns), len(sp.Ks), len(sp.Protocols), len(sp.Ps),
		len(sp.Adversaries), len(sp.Fs), len(sp.Engines), len(sp.Bandwidths),
	} {
		// An omitted list is one default value.
		n = max(n, 1)
		if cells > math.MaxInt/n {
			return math.MaxInt
		}
		cells *= n
	}
	return cells
}

// Plan validates the spec and returns the Plan that runs it. Cache and
// Observers are execution-side concerns the caller installs on the returned
// Plan.
func (sp PlanSpec) Plan() (Plan, error) {
	if err := sp.Validate(); err != nil {
		return Plan{}, err
	}
	return Plan{PlanSpec: sp}, nil
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
