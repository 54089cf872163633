package detlint_test

import (
	"testing"

	"columbia/internal/analysis"
	"columbia/internal/analysis/analysistest"
	"columbia/internal/analysis/detlint"
)

// TestAnalyzers golden-tests each analyzer alone against its fixture
// packages; every fixture carries at least one true positive and one
// //detlint:allow suppression.
func TestAnalyzers(t *testing.T) {
	tests := []struct {
		name string
		pkgs []string
		run  []*analysis.Analyzer
	}{
		{"nodeterm", []string{"vmpi", "notsim"}, []*analysis.Analyzer{detlint.NoDeterm}},
		{"floatcmp", []string{"core"}, []*analysis.Analyzer{detlint.FloatCmp}},
		{"lockorder", []string{"locks"}, []*analysis.Analyzer{detlint.LockOrder}},
		{"wirecover", []string{"wire"}, []*analysis.Analyzer{detlint.WireCover}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for _, pkg := range tt.pkgs {
				analysistest.Run(t, "testdata/"+tt.name, pkg, tt.run, detlint.Names())
			}
		})
	}
}

// TestAllowProtocol runs the full suite against a fixture dedicated to the
// suppression comment semantics: exact analyzer, exact statement, stale and
// malformed allows reported.
func TestAllowProtocol(t *testing.T) {
	analysistest.Run(t, "testdata/allow", "vmpi", detlint.Suite, detlint.Names())
}

// TestNames pins the allow-comment vocabulary; renaming an analyzer is an
// interface change for every suppression in the repo.
func TestNames(t *testing.T) {
	want := []string{"nodeterm", "floatcmp", "lockorder", "wirecover"}
	got := detlint.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
