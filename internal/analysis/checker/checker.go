// Package checker runs a suite of analyzers over one loaded package and
// applies detlint's suppression protocol: a `//detlint:allow <analyzer>
// <reason>` comment silences exactly the named analyzer on exactly one
// source line — the comment's own line when code precedes it there
// (trailing form), or the next line that contains any code. Anchoring to
// lines rather than statement extents means an allow above a multi-line
// statement or declaration governs only its first line, and a trailing
// allow on a continuation line governs that continuation line — the
// diagnostic's line, never the whole enclosing construct. An allow that
// suppresses nothing is itself reported as stale, so suppressions cannot
// outlive the hazards they were written for.
package checker

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"columbia/internal/analysis"
)

// A Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// A Diag is one finding surviving suppression, labeled with the analyzer
// that produced it. Driver-level findings about the suppression comments
// themselves (stale, malformed, unknown analyzer) carry the reserved
// analyzer name "allow", which cannot itself be suppressed.
type Diag struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// AllowPrefix is the comment marker that starts a suppression.
const AllowPrefix = "//detlint:allow"

// allowName is the reserved pseudo-analyzer for driver diagnostics about
// suppression comments.
const allowName = "allow"

// Run applies analyzers to pkg, enforces the allow protocol, and returns
// the surviving diagnostics sorted by position. known lists every analyzer
// name that exists in the full suite: an allow naming an analyzer in known
// but not in analyzers is ignored (partial runs, e.g. a single-analyzer
// test, cannot judge its staleness), while an allow naming anything else
// is reported as referring to an unknown analyzer.
//
// A panicking analyzer is contained: the panic surfaces as a diagnostic
// under the analyzer's own name at the package clause, so one buggy
// analyzer degrades the run instead of crashing the test that drives it,
// and the other analyzers' findings survive.
func Run(pkg *Package, analyzers []*analysis.Analyzer, known []string) ([]Diag, error) {
	if err := analysis.Validate(analyzers); err != nil {
		return nil, err
	}
	ran := make(map[string]bool, len(analyzers))
	var diags []Diag
	for _, a := range analyzers {
		ran[a.Name] = true
		name := a.Name
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			Report: func(d analysis.Diagnostic) {
				diags = append(diags, Diag{Analyzer: name, Pos: d.Pos, Message: d.Message})
			},
		}
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					pos := token.NoPos
					if len(pkg.Files) > 0 {
						pos = pkg.Files[0].Package
					}
					diags = append(diags, Diag{Analyzer: name, Pos: pos, Message: fmt.Sprintf(
						"analyzer panicked: %v (analyzer bug — this is not a finding about the code under analysis)", r)})
				}
			}()
			return a.Run(pass)
		}()
		if err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Pkg.Path(), err)
		}
	}
	knownSet := make(map[string]bool, len(known))
	for _, n := range known {
		knownSet[n] = true
	}
	out := applyAllows(pkg, diags, ran, knownSet)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out, nil
}

// allow is one parsed suppression comment, anchored to the single source
// line it governs.
type allow struct {
	comment  *ast.Comment
	analyzer string
	file     string
	line     int
	used     bool
}

func applyAllows(pkg *Package, diags []Diag, ran, known map[string]bool) []Diag {
	var out []Diag
	var allows []*allow
	for _, f := range pkg.Files {
		fileAllows, bad := parseAllows(pkg, f, ran, known)
		allows = append(allows, fileAllows...)
		out = append(out, bad...)
	}
	suppressed := make([]bool, len(diags))
	for _, al := range allows {
		for i, d := range diags {
			if d.Analyzer != al.analyzer {
				continue
			}
			posn := pkg.Fset.Position(d.Pos)
			if posn.Filename == al.file && posn.Line == al.line {
				suppressed[i] = true
				al.used = true
			}
		}
	}
	for i, d := range diags {
		if !suppressed[i] {
			out = append(out, d)
		}
	}
	for _, al := range allows {
		if !al.used {
			out = append(out, Diag{
				Analyzer: allowName,
				Pos:      al.comment.Pos(),
				Message: fmt.Sprintf("stale %s: no %s diagnostic at the targeted statement",
					AllowPrefix, al.analyzer),
			})
		}
	}
	return out
}

// parseAllows extracts the well-formed allow comments of one file and
// reports the malformed ones. Allows naming analyzers that exist but did
// not run are dropped without complaint.
func parseAllows(pkg *Package, f *ast.File, ran, known map[string]bool) ([]*allow, []Diag) {
	var allows []*allow
	var bad []Diag
	lines := codeLines(pkg.Fset, f)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, AllowPrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, AllowPrefix)
			if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
				continue // e.g. //detlint:allowance — not ours
			}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				bad = append(bad, Diag{Analyzer: allowName, Pos: c.Pos(), Message: fmt.Sprintf(
					"malformed %s: want %q", AllowPrefix, AllowPrefix+" <analyzer> <reason>")})
				continue
			}
			name := fields[0]
			if !known[name] {
				bad = append(bad, Diag{Analyzer: allowName, Pos: c.Pos(), Message: fmt.Sprintf(
					"%s names unknown analyzer %q", AllowPrefix, name)})
				continue
			}
			if !ran[name] {
				continue
			}
			line := governedLine(pkg.Fset, c, lines)
			if line == 0 {
				bad = append(bad, Diag{Analyzer: allowName, Pos: c.Pos(), Message: fmt.Sprintf(
					"stale %s: no statement follows the comment", AllowPrefix)})
				continue
			}
			allows = append(allows, &allow{
				comment:  c,
				analyzer: name,
				file:     pkg.Fset.Position(c.Pos()).Filename,
				line:     line,
			})
		}
	}
	return allows, bad
}

// codeLines returns, sorted, every line of f on which some AST node
// begins. Expressions count, not just statements: the continuation lines
// of a multi-line statement are code lines, so a trailing allow there
// anchors to its own line instead of sliding to the next statement.
// Comment positions deliberately do not count as code.
func codeLines(fset *token.FileSet, f *ast.File) []int {
	seen := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return false
		}
		seen[fset.Position(n.Pos()).Line] = true
		return true
	})
	lines := make([]int, 0, len(seen))
	for l := range seen {
		lines = append(lines, l)
	}
	sort.Ints(lines)
	return lines
}

// governedLine resolves the line an allow comment governs: its own line
// when that line contains code (the trailing-comment form — a line
// comment runs to end of line, so any code there precedes it), otherwise
// the nearest following code line. Zero means nothing follows.
func governedLine(fset *token.FileSet, c *ast.Comment, lines []int) int {
	cLine := fset.Position(c.Pos()).Line
	i := sort.SearchInts(lines, cLine)
	if i < len(lines) && lines[i] == cLine {
		return cLine
	}
	if i < len(lines) {
		return lines[i]
	}
	return 0
}
