package analysis_test

import (
	"strings"
	"testing"

	"mobilecongest/internal/lint/analysis"
)

// TestDirectiveHygiene pins the suppression contract: a directive without
// an analyzer list and reason is malformed, a directive whose analyzer runs
// but matches no diagnostic is stale, and a directive naming an analyzer
// outside the running set is left alone (analysistest runs one analyzer at
// a time).
func TestDirectiveHygiene(t *testing.T) {
	pkgs, err := analysis.Load("testdata/src/directives", ".")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	noop := &analysis.Analyzer{
		Name: "noop",
		Doc:  "reports nothing",
		Run:  func(*analysis.Pass) error { return nil },
	}
	findings, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{noop})
	if err != nil {
		t.Fatalf("running: %v", err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2 (malformed + stale):\n%v", len(findings), findings)
	}
	if !strings.Contains(findings[0].Message, "malformed //lint:ignore") {
		t.Errorf("first finding = %v, want the malformed directive", findings[0])
	}
	if !strings.Contains(findings[1].Message, "unused //lint:ignore directive for noop") {
		t.Errorf("second finding = %v, want the stale directive", findings[1])
	}
	for _, f := range findings {
		if f.Analyzer != "lintdirective" {
			t.Errorf("finding %v attributed to %q, want lintdirective", f, f.Analyzer)
		}
	}
}
