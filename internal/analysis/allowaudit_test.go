package analysis_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"columbia/internal/analysis/checker"
	"columbia/internal/analysis/detlint"
)

// TestAllowAudit sweeps every //detlint:allow comment in the repository
// and validates it against the suppression grammar the checker enforces:
// a known analyzer name followed by a non-empty reason. The checker
// reports malformed and stale allows only in the files it is given; this
// audit catches the same rot repo-wide in one pass — including files
// behind build tags that TestLint's build configuration does not load,
// such as internal/sweep/race.go — so a suppression cannot quietly decay
// into a comment that silences nothing.
func TestAllowAudit(t *testing.T) {
	known := make(map[string]bool)
	for _, n := range detlint.Names() {
		known[n] = true
	}

	root := filepath.Join("..", "..")
	var audited int
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", "bin", ".git":
				// testdata holds deliberately malformed fixtures; bin and
				// .git hold no audited source.
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			t.Errorf("%s: %v", path, perr)
			return nil
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, checker.AllowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, checker.AllowPrefix)
				if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
					continue // a longer word, e.g. //detlint:allowance
				}
				audited++
				pos := fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					t.Errorf("%s: malformed %s: want %q", pos, checker.AllowPrefix,
						checker.AllowPrefix+" <analyzer> <reason>")
					continue
				}
				if !known[fields[0]] {
					t.Errorf("%s: %s names unknown analyzer %q", pos, checker.AllowPrefix, fields[0])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if audited == 0 {
		t.Fatal("audit walked the repository but found no //detlint:allow comments; the walker is broken (the repo has several)")
	}
	t.Logf("audited %d allow comments", audited)
}
