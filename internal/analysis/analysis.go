// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package through a Pass and reports position-anchored
// Diagnostics.
//
// The repository cannot vendor x/tools (builds must work from a clean
// module cache with no network), so the subset of the analysis API that
// detlint needs — single-package analyzers without cross-package facts —
// lives here. The shapes deliberately mirror x/tools so the detlint
// analyzers could migrate to the upstream framework by changing imports
// alone; see DESIGN.md "Determinism invariants and how they are enforced".
//
// TestLint runs the detlint suite over the module through checker.Run,
// the one driver, so a finding fails go test ./....
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one static check: a name (used in diagnostics and in
// //detlint:allow comments), a doc string, and a Run function applied to
// each package independently.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// comments. It must be a valid identifier.
	Name string
	// Doc is the analyzer's documentation: first line is a one-line
	// summary, the rest explains the invariant it enforces.
	Doc string
	// Run applies the analyzer to one package. Diagnostics are delivered
	// through pass.Report; the returned error aborts the whole check run
	// (reserve it for internal failures, not findings).
	Run func(*Pass) error
}

// A Pass presents one type-checked package to an Analyzer.Run and collects
// its diagnostics.
type Pass struct {
	// Analyzer is the analyzer being applied.
	Analyzer *Analyzer
	// Fset maps token.Pos values in Files to file positions.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees, including _test.go
	// files when the test variant of the package is being linted.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds type and object resolution for Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, anchored to a position in the package.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Validate checks the analyzer list for missing fields and duplicate
// names, the mistakes that would otherwise surface as confusing allow
// comment or suppression behavior.
func Validate(analyzers []*Analyzer) error {
	seen := make(map[string]bool)
	for _, a := range analyzers {
		if a.Name == "" || a.Run == nil {
			return fmt.Errorf("analysis: analyzer %+v needs both a Name and a Run function", a)
		}
		if seen[a.Name] {
			return fmt.Errorf("analysis: duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}
