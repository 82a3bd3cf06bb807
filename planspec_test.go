package mobilecongest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	mc "mobilecongest"
)

// TestPlanSpecEquivalentToGrid pins the lowering: a spec without protocol or
// bandwidth axes names exactly the cells of the equivalent fixed-axis Plan —
// byte-identical names, seeds, and record order.
func TestPlanSpecEquivalentToGrid(t *testing.T) {
	sp := mc.PlanSpec{
		Topologies:  []string{"clique", "circulant"},
		Ns:          []int{8, 16},
		Adversaries: []string{"none", "flip"},
		Fs:          []int{2},
		Reps:        2,
		BaseSeed:    7,
		Workers:     1,
	}
	plan, err := sp.Plan()
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := mc.Plan{
		Axes: []mc.Axis{
			mc.TopologyAxis("clique", "circulant"),
			mc.NAxis(8, 16),
			mc.KAxis(0),
			mc.AdversaryAxis("none", "flip"),
			mc.FAxis(2),
			mc.EngineAxis("step"),
			mc.RepsAxis(2),
		},
		BaseSeed: 7,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		g.ElapsedMS, w.ElapsedMS = 0, 0
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if !bytes.Equal(gj, wj) {
			t.Fatalf("record %d differs:\nspec: %s\nplan: %s", i, gj, wj)
		}
	}
	if n := sp.Cells(); n != len(got) {
		t.Fatalf("Cells() = %d, ran %d", n, len(got))
	}
}

// TestPlanSpecValidation mirrors the axis-constructor error cases of plan.go
// at the decoder: every rejected spec errors with a diagnostic, never
// panics, and never reaches topology building. (The duplicate-axis error is
// unexpressible here — each dimension is one spec field — which is itself
// the point of the wire format.)
func TestPlanSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{"not-json", `hello`, "bad plan spec"},
		{"wrong-shape", `[1,2,3]`, "bad plan spec"},
		{"unknown-field", `{"topolojees":["clique"]}`, "unknown field"},
		{"mistyped-field", `{"ns":"16"}`, "bad plan spec"},
		{"trailing-data", `{"ns":[8]} {"ns":[9]}`, "trailing data"},
		{"unknown-topology", `{"topologies":["moebius"]}`, `unknown topology "moebius"`},
		{"unknown-protocol", `{"protocols":["gossip"]}`, `unknown protocol "gossip"`},
		{"unknown-adversary", `{"adversaries":["omniscient"]}`, `unknown adversary "omniscient"`},
		{"unknown-engine", `{"engines":["quantum"]}`, "unknown engine"},
		{"p-without-protocol", `{"ps":[4]}`, "ps requires protocols"},
		{"zero-n", `{"ns":[16,0]}`, "n must be >= 1"},
		{"negative-n", `{"ns":[-4]}`, "n must be >= 1"},
		{"negative-k", `{"ks":[-1]}`, "ks values must be >= 0"},
		{"negative-p", `{"protocols":["bfs"],"ps":[-2]}`, "ps values must be >= 0"},
		{"negative-f", `{"fs":[-1]}`, "fs values must be >= 0"},
		{"negative-bandwidth", `{"bandwidths":[-8]}`, "bandwidths values must be >= 0"},
		{"negative-reps", `{"reps":-1}`, "reps must be >= 0"},
		{"negative-maxrounds", `{"max_rounds":-1}`, "max_rounds must be >= 0"},
		{"negative-workers", `{"workers":-1}`, "workers must be >= 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := mc.ParsePlanSpec([]byte(c.json))
			if err == nil {
				t.Fatalf("spec %s accepted", c.json)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestPlanSpecGoroutineEngineRemoved pins the removal of the goroutine
// engine at the wire format: a spec naming it fails validation with the
// registry's unknown-engine error, which lists the engines that remain.
func TestPlanSpecGoroutineEngineRemoved(t *testing.T) {
	err := mc.PlanSpec{Engines: []string{"goroutine"}}.Validate()
	if want := `unknown engine "goroutine" (have [shard step])`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Validate() = %v, want an error containing %q", err, want)
	}
}

// TestPlanSpecDefaults pins the defaulting contract: the empty spec is one
// default cell, and each omitted axis matches the CLI flag default.
func TestPlanSpecDefaults(t *testing.T) {
	sp, err := mc.ParsePlanSpec([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if n := sp.Cells(); n != 1 {
		t.Fatalf("empty spec expands to %d cells", n)
	}
	plan, err := sp.Plan()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	r := recs[0]
	if r.Topology != "clique" || r.N != 16 || r.Adversary != "none" || r.F != 1 ||
		r.Engine != mc.EngineStep.Name() || r.Rep != 0 || r.Error != "" {
		t.Fatalf("default cell = %+v", r)
	}
}

// TestPlanSpecCells pins the expansion arithmetic against a protocol+p+
// bandwidth spec actually run.
func TestPlanSpecCells(t *testing.T) {
	sp := mc.PlanSpec{
		Ns:         []int{8, 12},
		Protocols:  []string{"floodmax", "broadcast"},
		Ps:         []int{2, 3, 4},
		Engines:    []string{"step", "shard"},
		Bandwidths: []int{0, 4096},
		Reps:       2,
	}
	want := 2 * 2 * 3 * 2 * 2 * 2
	if n := sp.Cells(); n != want {
		t.Fatalf("Cells() = %d, want %d", n, want)
	}
	plan, err := sp.Plan()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := plan.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != want {
		t.Fatalf("ran %d cells, want %d", len(recs), want)
	}
}

// overflowSpecs are accepted specs whose cell count wraps int when the axis
// lengths are multiplied: 8 × 2^61 and 2^17 × 2^17 × 2^30 are both 2^64.
func overflowSpecs() map[string]string {
	many := func(v string) string { return strings.TrimSuffix(strings.Repeat(v+",", 1<<17), ",") }
	return map[string]string{
		"reps":    `{"ns":[1,2,3,4,5,6,7,8],"reps":2305843009213693952}`,
		"n-k-rep": `{"ns":[` + many("1") + `],"ks":[` + many("0") + `],"reps":1073741824}`,
	}
}

// TestPlanSpecCellsSaturate pins that Cells saturates instead of wrapping,
// so a server's cell cap rejects these specs before Plan allocates axes.
func TestPlanSpecCellsSaturate(t *testing.T) {
	for name, body := range overflowSpecs() {
		sp, err := mc.ParsePlanSpec([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := sp.Cells(); n <= 1<<20 {
			t.Fatalf("%s: Cells() = %d, want above the default server cap", name, n)
		}
	}
}

// serverCellCap is cmd/mobilesimd's default -max-cells: the largest spec
// the server lets reach Plan.
const serverCellCap = 1 << 20

// FuzzPlanSpecCodec fuzzes the wire decoder: any input either errors or
// yields a spec that (a) survives an encode→decode round-trip unchanged and
// (b) builds a Plan without panicking when it passes the server's cell cap.
// Plan allocates one axis value per rep and per list entry, so a spec past
// the cap (say reps 2^33) is left unbuilt, exactly as the server leaves it.
func FuzzPlanSpecCodec(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"topologies":["clique","circulant"],"ns":[8,16],"ks":[0],"reps":3,"base_seed":-9}`))
	f.Add([]byte(`{"protocols":["bfs"],"ps":[2,4],"adversaries":["flip"],"fs":[1,2],"engines":["step"]}`))
	f.Add([]byte(`{"bandwidths":[0,64],"max_rounds":12,"workers":4}`))
	f.Add([]byte(`{"ns":[0]}`))
	f.Add([]byte(`{"ps":[1]}`))
	f.Add([]byte(`{"topologies":["nope"]}`))
	f.Add([]byte(`[{"ns":[8]}]`))
	f.Add([]byte(`{"ns":[8]}trailing`))
	f.Add([]byte(overflowSpecs()["reps"]))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := mc.ParsePlanSpec(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		sp2, err := mc.ParsePlanSpec(enc)
		if err != nil {
			t.Fatalf("re-encoded spec %s rejected: %v", enc, err)
		}
		enc2, err := json.Marshal(sp2)
		if err != nil {
			t.Fatal(err)
		}
		// Compare through the encoding: empty and omitted lists are the same
		// spec on the wire.
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round-trip drift: %s vs %s", enc, enc2)
		}
		if sp.Cells() > serverCellCap {
			return
		}
		if _, err := sp.Plan(); err != nil {
			t.Fatalf("validated spec %s failed to build: %v", enc, err)
		}
	})
}
