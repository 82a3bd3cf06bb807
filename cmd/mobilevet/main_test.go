package main

import (
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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

// TestVettoolProtocol pins that mobilevet has one driver: the go vet tool
// protocol's probes and the per-analyzer switches are usage errors, so
// `go vet -vettool` cannot run it. Cross-package facts still reach their
// consumers through the standalone driver's dependency runs.
func TestVettoolProtocol(t *testing.T) {
	bin := buildTool(t)

	for _, args := range [][]string{
		{"-V=full"},
		{"-flags"},
		{"-maprange=false", "./..."},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("mobilevet %s: want exit 2, got %v\n%s", strings.Join(args, " "), err, out)
		}
		if !strings.Contains(string(out), "usage: mobilevet [-json] <packages>") {
			t.Errorf("mobilevet %s: output lacks the usage line:\n%s", strings.Join(args, " "), out)
		}
	}

	if out, err := exec.Command("go", "vet", "-vettool="+bin, "mobilecongest/internal/vote").CombinedOutput(); err == nil {
		t.Errorf("go vet -vettool: want failure, got success\n%s", out)
	}

	// The fixture's hot root calls into a sibling package, so it is clean
	// only when that package's hotpath fact, exported by its FactsOnly
	// dependency run, reaches the target: without it hotalloc reports the
	// fact-completeness diagnostic on the call.
	if out, err := exec.Command(bin, "mobilecongest/cmd/mobilevet/testdata/facts/hot").CombinedOutput(); err != nil {
		t.Errorf("standalone run with cross-package facts: %v\n%s", err, out)
	}
}
