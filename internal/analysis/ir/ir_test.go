package ir_test

import (
	"flag"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"testing"

	"columbia/internal/analysis/analysistest"
	"columbia/internal/analysis/ir"
)

var update = flag.Bool("update", false, "rewrite the golden CFG dumps")

// loadFixture parses and type-checks testdata/cfg.go once per test.
func loadFixture(t *testing.T) (*token.FileSet, *ast.File, *types.Info) {
	t.Helper()
	// The fixture imports nothing, so it needs no importer.
	pkg, err := analysistest.TypeCheck(token.NewFileSet(), "cfg", []string{filepath.Join("testdata", "cfg.go")}, nil)
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	return pkg.Fset, pkg.Files[0], pkg.Info
}

func fixtureFunc(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("fixture function %s not found", name)
	return nil
}

// TestCFGGolden diffs each fixture function's dot dump against its
// committed golden, pinning the lowering of select-with-default,
// defer-unlock, labeled break/continue and goto. Regenerate with
// `go test ./internal/analysis/ir -run Golden -update`.
func TestCFGGolden(t *testing.T) {
	fset, f, _ := loadFixture(t)
	for _, name := range []string{"selectDefault", "deferUnlock", "labeledLoops", "gotoRetry", "loopHeavy"} {
		t.Run(name, func(t *testing.T) {
			g := ir.New(fixtureFunc(t, f, name).Body)
			got := g.Dot(fset)
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("CFG dump for %s drifted from golden.\ngot:\n%s\nwant:\n%s", name, got, want)
			}
		})
	}
}

// TestGraphShape pins structural properties the analyzers rely on, beyond
// what the goldens show: bypass edges, blocking selects, defer replay.
func TestGraphShape(t *testing.T) {
	_, f, _ := loadFixture(t)

	t.Run("select default is a head successor", func(t *testing.T) {
		g := ir.New(fixtureFunc(t, f, "selectDefault").Body)
		var head *ir.Block
		for _, sel := range g.Selects {
			head = sel.Block
		}
		if head == nil {
			t.Fatal("no select recorded")
		}
		foundDefault := false
		for _, s := range head.Succs {
			if s.Kind == "select.default" {
				foundDefault = true
			}
		}
		if !foundDefault {
			t.Error("select head has no default successor")
		}
	})

	t.Run("select branch sits at its keyword", func(t *testing.T) {
		fd := fixtureFunc(t, f, "selectDefault")
		var sel *ast.SelectStmt
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if s, ok := n.(*ast.SelectStmt); ok {
				sel = s
			}
			return sel == nil
		})
		for _, rec := range ir.New(fd.Body).Selects {
			if rec.Pos != sel.Select {
				t.Errorf("select Pos = %d, want its keyword at %d", rec.Pos, sel.Select)
			}
		}
	})

	t.Run("defer call replays at exit", func(t *testing.T) {
		g := ir.New(fixtureFunc(t, f, "deferUnlock").Body)
		if len(g.Defers) != 1 {
			t.Fatalf("got %d defers, want 1", len(g.Defers))
		}
		found := false
		for _, n := range g.Exit.Nodes {
			if n == g.Defers[0].Call {
				found = true
			}
		}
		if !found {
			t.Error("deferred call not replayed in the exit block")
		}
	})

	t.Run("goto closes a reachable loop", func(t *testing.T) {
		g := ir.New(fixtureFunc(t, f, "gotoRetry").Body)
		reach := g.Reachable()
		var label *ir.Block
		for _, b := range g.Blocks {
			if b.Kind == "label.retry" {
				label = b
			}
		}
		if label == nil {
			t.Fatal("no label block for retry")
		}
		if !reach[label] {
			t.Error("label block unreachable")
		}
		if len(label.Preds) < 2 {
			t.Errorf("label block has %d preds, want >= 2 (fallthrough + goto)", len(label.Preds))
		}
	})
}

// dominators is the dominator problem over block sets: the fact at a block
// is the set of blocks every path from entry passes through, the block
// itself included.
func dominators(g *ir.Graph) ir.Problem[map[*ir.Block]bool] {
	all := make(map[*ir.Block]bool, len(g.Blocks))
	for _, b := range g.Blocks {
		all[b] = true
	}
	return ir.Problem[map[*ir.Block]bool]{
		Boundary: map[*ir.Block]bool{},
		Init:     all,
		Meet: func(a, b map[*ir.Block]bool) map[*ir.Block]bool {
			out := make(map[*ir.Block]bool)
			for k := range a {
				if b[k] {
					out[k] = true
				}
			}
			return out
		},
		Equal: func(a, b map[*ir.Block]bool) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
		Transfer: func(b *ir.Block, in map[*ir.Block]bool) map[*ir.Block]bool {
			out := make(map[*ir.Block]bool, len(in)+1)
			for k := range in {
				out[k] = true
			}
			out[b] = true
			return out
		},
	}
}

// TestWorklistConvergence bounds the solver on the loop-heavy fixture:
// nested loops and a switch must converge in a small multiple of the block
// count, and the solved dominators must be right at spot-checked points.
func TestWorklistConvergence(t *testing.T) {
	_, f, _ := loadFixture(t)
	g := ir.New(fixtureFunc(t, f, "loopHeavy").Body)
	bound := 6 * len(g.Blocks)
	reach := g.Reachable()

	dom := ir.Solve(g, dominators(g))
	if dom.Steps > bound {
		t.Errorf("dominators took %d transfer steps on %d blocks, want <= %d", dom.Steps, len(g.Blocks), bound)
	}

	// Entry dominates every reachable block, and each loop head dominates
	// the body it guards.
	for b := range reach {
		if !dom.Out[b][g.Entry] {
			t.Errorf("entry does not dominate reachable block b%d (%s)", b.Index, b.Kind)
		}
	}
	for _, b := range g.Blocks {
		if b.Kind != "for.head" && b.Kind != "range.head" {
			continue
		}
		for _, s := range b.Succs {
			if (s.Kind == "for.body" || s.Kind == "range.body") && !dom.Out[s][b] {
				t.Errorf("%s b%d does not dominate its body b%d", b.Kind, b.Index, s.Index)
			}
		}
	}
}
