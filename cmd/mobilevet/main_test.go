package main

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mobilecongest/internal/lint"
)

// buildTool compiles the mobilevet binary into a scratch dir.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "mobilevet")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building mobilevet: %v\n%s", err, out)
	}
	return bin
}

// TestStandalone exercises the go list driver end to end: a clean package
// exits 0, a fixture with violations exits 1 and names them.
func TestStandalone(t *testing.T) {
	bin := buildTool(t)

	if out, err := exec.Command(bin, "mobilecongest/internal/vote").CombinedOutput(); err != nil {
		t.Errorf("clean package: want exit 0, got %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "./...")
	cmd.Dir = filepath.Join("..", "..", "internal", "lint", "portnative", "testdata", "src", "flagged")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("flagged fixture: want nonzero exit, got success\n%s", out)
	}
	if !strings.Contains(string(out), "legacy map Exchange") {
		t.Errorf("flagged fixture output missing the portnative diagnostic:\n%s", out)
	}

	// Disabling the only reporting analyzer must turn the run clean.
	cmd = exec.Command(bin, "-portnative=false", "./...")
	cmd.Dir = filepath.Join("..", "..", "internal", "lint", "portnative", "testdata", "src", "flagged")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Errorf("disabled analyzer: want exit 0, got %v\n%s", err, out)
	}
}

// TestStandaloneJSON exercises -json: findings come back as a machine-
// readable array (suppressed ones included, marked), and the exit code still
// reflects only the active findings.
func TestStandaloneJSON(t *testing.T) {
	bin := buildTool(t)

	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = filepath.Join("..", "..", "internal", "lint", "shardsafe", "testdata", "src", "flagged")
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("flagged fixture: want nonzero exit, got success\n%s", out)
	}
	var findings []struct {
		File       string `json:"file"`
		Line       int    `json:"line"`
		Analyzer   string `json:"analyzer"`
		Message    string `json:"message"`
		Suppressed bool   `json:"suppressed"`
	}
	if err := json.Unmarshal(out, &findings); err != nil {
		t.Fatalf("-json output is not a findings array: %v\n%s", err, out)
	}
	if len(findings) == 0 {
		t.Fatal("-json output has no findings for the flagged fixture")
	}
	for _, f := range findings {
		if f.Analyzer != "shardsafe" || f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}

	// A clean tree with a reasoned ignore exits 0 but still reports the
	// suppressed finding in the JSON.
	cmd = exec.Command(bin, "-json", "./...")
	cmd.Dir = filepath.Join("..", "..", "internal", "lint", "shardsafe", "testdata", "src", "clean")
	out, err = cmd.Output()
	if err != nil {
		t.Fatalf("clean fixture: want exit 0, got %v\n%s", err, out)
	}
	findings = findings[:0]
	if err := json.Unmarshal(out, &findings); err != nil {
		t.Fatalf("-json output is not a findings array: %v\n%s", err, out)
	}
	for _, f := range findings {
		if !f.Suppressed {
			t.Errorf("clean fixture reported an unsuppressed finding: %+v", f)
		}
	}
}

// TestVettoolProtocol exercises the go vet integration: the -V=full and
// -flags probes, then a real `go vet -vettool` run over clean and flagged
// packages.
func TestVettoolProtocol(t *testing.T) {
	bin := buildTool(t)

	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	if !strings.Contains(string(out), "mobilevet version") {
		t.Errorf("-V=full output %q lacks the version banner", out)
	}

	out, err = exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	for _, a := range lint.Suite() {
		if !strings.Contains(string(out), `"`+a.Name+`"`) {
			t.Errorf("-flags output lacks analyzer flag %q:\n%s", a.Name, out)
		}
	}

	if out, err := exec.Command("go", "vet", "-vettool="+bin, "mobilecongest/internal/vote").CombinedOutput(); err != nil {
		t.Errorf("go vet -vettool on clean package: %v\n%s", err, out)
	}

	// internal/congest is only clean when the hotpath facts its hot paths
	// depend on (exported by internal/graph's VetxOnly run) decode from the
	// .vetx files — without them hotalloc reports the fact-completeness
	// diagnostic on graph accessor calls, so a clean exit IS the fact
	// round-trip assertion for the unitchecker protocol.
	if out, err := exec.Command("go", "vet", "-vettool="+bin, "mobilecongest/internal/congest").CombinedOutput(); err != nil {
		t.Errorf("go vet -vettool with cross-package facts: %v\n%s", err, out)
	}

	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = filepath.Join("..", "..", "internal", "lint", "portnative", "testdata", "src", "flagged")
	vetOut, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool on flagged fixture: want failure, got success\n%s", vetOut)
	}
	if !strings.Contains(string(vetOut), "legacy map Exchange") {
		t.Errorf("go vet output missing the portnative diagnostic:\n%s", vetOut)
	}
}
