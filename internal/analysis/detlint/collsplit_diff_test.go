package detlint

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"columbia/internal/analysis"
	"columbia/internal/analysis/analysistest"
	"columbia/internal/analysis/checker"
)

// TestCollsplitDifferential pins the CFG port of collsplit to the original
// lexical walker: on every committed fixture the two formulations must
// produce bit-identical diagnostics — same file, line, column and message.
// The CFG version is allowed to diverge only on shapes the fixtures do not
// contain (early returns out of guarded branches, dead code), where the
// lexical nesting model has no answer at all.
func TestCollsplitDifferential(t *testing.T) {
	pkg := analysistest.Load(t, filepath.Join("testdata", "collsplit"), "coll")
	run := func(name string, runFn func(*analysis.Pass) error) []string {
		t.Helper()
		a := &analysis.Analyzer{Name: "collsplit", Doc: "differential instance", Run: runFn}
		diags, err := checker.Run(pkg, []*analysis.Analyzer{a}, Names())
		if err != nil {
			t.Fatalf("%s: checker.Run: %v", name, err)
		}
		var out []string
		for _, d := range diags {
			p := pkg.Fset.Position(d.Pos)
			out = append(out, fmt.Sprintf("%s:%d:%d %s: %s", filepath.Base(p.Filename), p.Line, p.Column, d.Analyzer, d.Message))
		}
		sort.Strings(out)
		return out
	}
	cfgDiags := run("cfg", runCollsplit)
	lexDiags := run("lexical", runCollsplitLexical)
	if len(cfgDiags) != len(lexDiags) {
		t.Fatalf("CFG and lexical collsplit disagree: %d vs %d diagnostics\ncfg:\n%s\nlexical:\n%s",
			len(cfgDiags), len(lexDiags), strings.Join(cfgDiags, "\n"), strings.Join(lexDiags, "\n"))
	}
	for i := range cfgDiags {
		if cfgDiags[i] != lexDiags[i] {
			t.Errorf("diagnostic %d differs:\ncfg:     %s\nlexical: %s", i, cfgDiags[i], lexDiags[i])
		}
	}
}
