package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"

	"columbia/internal/analysis/detlint"
)

// Budget is the committed escape budget: per //perflint:hot function, the
// number of heap escapes the compiler reports inside it. The counts are
// only meaningful for the toolchain recorded in Go — escape analysis
// changes between compiler releases.
type Budget struct {
	Go        string         `json:"go"`
	Functions map[string]int `json:"functions"`
}

// parseBudget decodes a budget file, rejecting unknown fields.
func parseBudget(data []byte) (*Budget, error) {
	var b Budget
	if err := decodeStrict(data, &b); err != nil {
		return nil, fmt.Errorf("escape budget: %w", err)
	}
	if b.Functions == nil {
		b.Functions = map[string]int{}
	}
	return &b, nil
}

// hotCount is one hot function's compiler escape count plus the source
// range the compiler's diagnostics are attributed over.
type hotCount struct {
	escapes  int
	file     string // absolute path
	from, to int    // declaration line range, inclusive
	pkg      string // import path, the unit built with -m
	shortPos string // file:line of the declaration, repo-relative
}

// hotFuncs finds every //perflint:hot function in the repository, keyed
// by funcKey. The packages they live in are exactly the ones
// compilerCounts builds with -m, so an annotation anywhere is counted.
func hotFuncs(pkgs []*repoPkg) map[string]*hotCount {
	counts := make(map[string]*hotCount)
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if _, ok := detlint.Marker(fd.Doc, "hot"); !ok {
					continue
				}
				start := p.fset.Position(fd.Pos())
				counts[funcKey(p.ImportPath, fd)] = &hotCount{
					file:     start.Filename,
					from:     start.Line,
					to:       p.fset.Position(fd.End()).Line,
					pkg:      p.ImportPath,
					shortPos: fmt.Sprintf("%s:%d", relPath(start.Filename), start.Line),
				}
			}
		}
	}
	return counts
}

// funcKey derives the budget key of a declaration: the package path, the
// receiver's base type name for methods, and the function name —
// "columbia/internal/sweep.Pool.evict".
func funcKey(pkgPath string, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		for {
			switch x := t.(type) {
			case *ast.StarExpr:
				t = x.X
			case *ast.ParenExpr:
				t = x.X
			case *ast.IndexExpr:
				t = x.X
			case *ast.IndexListExpr:
				t = x.X
			case *ast.Ident:
				return pkgPath + "." + x.Name + "." + fd.Name.Name
			default:
				return pkgPath + "." + fd.Name.Name
			}
		}
	}
	return pkgPath + "." + fd.Name.Name
}

// escapeLine matches one gc escape diagnostic, e.g.
//
//	internal/sweep/sweep.go:145:7: &Pool{...} escapes to heap
//	internal/dist/proto.go:169:6: moved to heap: hdr
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (?:.* escapes to heap|moved to heap: .*)$`)

// compilerCounts builds each package holding a hot function with
// -gcflags=-m and attributes the heap-escape diagnostics that land inside
// a hot function's line range. The go build cache replays -m output on
// cache hits, so repeated gates are cheap.
func compilerCounts(counts map[string]*hotCount) error {
	byPkg := make(map[string][]*hotCount)
	for _, c := range counts {
		byPkg[c.pkg] = append(byPkg[c.pkg], c)
	}
	for _, pkg := range sortedKeys(byPkg) {
		cmd := exec.Command("go", "build", "-gcflags="+pkg+"=-m", pkg)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			os.Stderr.Write(stderr.Bytes())
			return fmt.Errorf("go build -gcflags=-m %s: %w", pkg, err)
		}
		sc := bufio.NewScanner(&stderr)
		for sc.Scan() {
			m := escapeLine.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			file, err := filepath.Abs(m[1])
			if err != nil {
				continue
			}
			line, _ := strconv.Atoi(m[2])
			for _, c := range byPkg[pkg] {
				if c.file == file && c.from <= line && line <= c.to {
					c.escapes++
				}
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}
	return nil
}

// gateHot diffs the measured escape counts against the budget. Under a
// toolchain other than the budget's, counts are not compared; only
// unbudgeted and stale functions fail.
func gateHot(budget *Budget, goVersion string, counts map[string]*hotCount) []string {
	comparable := budget.Go == goVersion
	var failures []string
	for _, key := range sortedKeys(counts) {
		c := counts[key]
		want, ok := budget.Functions[key]
		switch {
		case !ok:
			failures = append(failures, fmt.Sprintf(
				"ESCAPE %s (%s): hot function not budgeted — run `go run ./cmd/perflint -write` and commit the budget",
				key, c.shortPos))
		case !comparable:
		case c.escapes > want:
			failures = append(failures, fmt.Sprintf(
				"ESCAPE %s (%s): compiler reports %d heap escape(s), budget %d — a new allocation escapes this hot function; make it stack-local, or justify it and regenerate with `go run ./cmd/perflint -write`",
				key, c.shortPos, c.escapes, want))
		case c.escapes < want:
			failures = append(failures, fmt.Sprintf(
				"ESCAPE %s (%s): compiler reports %d heap escape(s), budget %d — an escape was eliminated; bank the win with `go run ./cmd/perflint -write` so it cannot silently regress",
				key, c.shortPos, c.escapes, want))
		}
	}
	for _, key := range sortedKeys(budget.Functions) {
		if _, ok := counts[key]; !ok {
			failures = append(failures, fmt.Sprintf(
				"ESCAPE %s: stale budget entry — the function is gone or no longer //perflint:hot; regenerate with `go run ./cmd/perflint -write`",
				key))
		}
	}
	return failures
}

// writeBudget regenerates the escape budget from the measured counts.
func writeBudget(path, goVersion string, counts map[string]*hotCount) error {
	b := Budget{Go: goVersion, Functions: make(map[string]int, len(counts))}
	for key, c := range counts {
		b.Functions[key] = c.escapes
	}
	if err := writeArtifact(path, &b); err != nil {
		return err
	}
	fmt.Printf("perflint: wrote %s (%d hot functions)\n", path, len(counts))
	return nil
}
