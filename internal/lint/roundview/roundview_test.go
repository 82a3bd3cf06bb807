// The fixtures under testdata/src hold one directory per check, each with a
// flagged package carrying the // want lines and a clean package that must
// stay silent.
package roundview_test

import (
	"path/filepath"
	"testing"

	"mobilecongest/internal/lint/analysis/analysistest"
	"mobilecongest/internal/lint/roundview"
)

func TestRoundview(t *testing.T) {
	for _, check := range []string{"retained", "carried", "lent", "written"} {
		t.Run(check, func(t *testing.T) {
			analysistest.Run(t, filepath.Join("testdata/src", check), roundview.Analyzer, "flagged", "clean")
		})
	}
}
