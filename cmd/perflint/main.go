// Perflint owns the repository's two committed analysis artifacts — the
// files that pin what no single-package analyzer can see:
//
//   - the escape budget (cmd/perflint/hotalloc_budget.json): per
//     //perflint:hot function, the number of heap escapes the compiler's
//     own escape analysis (-gcflags=-m) attributes to its line range;
//   - the wire schema (cmd/perflint/wire_schema.json): the gob shape of
//     every //perflint:wire struct, stamped with the dist.ProtocolVersion
//     it was snapshotted at.
//
// With no flags it is a gate, and any drift between the artifacts and the
// current source fails with exit 1:
//
//   - a hot function whose escape count moved in either direction (a new
//     escape, or a win the budget has not banked), a hot function missing
//     from the budget, or a budget entry whose function is gone or no
//     longer annotated. Escape counts are only comparable under the
//     toolchain that wrote the budget; under any other, only the
//     unbudgeted and stale checks run.
//   - a wire struct whose shape changed without a dist.ProtocolVersion
//     bump, a bump the schema has not been regenerated for, a wire struct
//     missing from the schema, or a schema entry whose struct is gone.
//
// Usage, from the repository root:
//
//	go run ./cmd/perflint          # gate
//	go run ./cmd/perflint -write   # regenerate both artifacts
//
// -write refuses to re-snapshot a drifted wire schema while
// dist.ProtocolVersion still equals the committed snapshot's version:
// changing a wire shape is a protocol change, and the bump is the reviewed
// evidence that both sides of the wire will be rebuilt.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// modulePath is the repository's module; only its packages are scanned.
const modulePath = "columbia"

// The committed artifacts, relative to the repository root.
const (
	budgetPath = "cmd/perflint/hotalloc_budget.json"
	schemaPath = "cmd/perflint/wire_schema.json"
)

// listedPackage is the subset of `go list -json` perflint consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
}

// repoPkg is one repository package parsed and type-checked from source.
type repoPkg struct {
	listedPackage
	fset  *token.FileSet
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perflint:", err)
		os.Exit(1)
	}
}

func run() error {
	write := flag.Bool("write", false, "regenerate the artifact files instead of gating on them")
	flag.Parse()

	pkgs, err := loadRepo()
	if err != nil {
		return err
	}
	counts := hotFuncs(pkgs)
	if err := compilerCounts(counts); err != nil {
		return err
	}
	shapes := wireShapes(pkgs)
	pv, hasPV := distProtocolVersion(pkgs)
	goVersion := runtime.Version()

	if *write {
		if err := writeBudget(budgetPath, goVersion, counts); err != nil {
			return err
		}
		return writeWireSchema(schemaPath, shapes, pv, hasPV)
	}

	budget, err := readArtifact(budgetPath, parseBudget)
	if err != nil {
		return err
	}
	schema, err := readArtifact(schemaPath, parseWireSchema)
	if err != nil {
		return err
	}
	if budget.Go != goVersion {
		fmt.Printf("perflint: budget written by %s, running %s — escape counts not compared, only unbudgeted and stale functions (regenerate with -write to re-arm the comparison)\n",
			budget.Go, goVersion)
	}
	failures := append(gateHot(budget, goVersion, counts), gateWire(schema, shapes, pv, hasPV)...)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Printf("  %s\n", f)
		}
		return fmt.Errorf("artifact gates failed: %d finding(s)", len(failures))
	}
	fmt.Printf("perflint: %d hot functions within budget, %d wire structs frozen at protocol %d\n",
		len(counts), len(shapes), pv)
	return nil
}

// loadRepo resolves every package in the module via the go command, then
// parses and type-checks each from source, importing dependencies through
// their gc export data — the same view the vet driver gives the analyzers.
func loadRepo() ([]*repoPkg, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export", "./...")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	exports := make(map[string]string)
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if len(p.GoFiles) > 0 && (p.ImportPath == modulePath || strings.HasPrefix(p.ImportPath, modulePath+"/")) {
			listed = append(listed, p)
		}
	}
	if len(listed) == 0 {
		return nil, fmt.Errorf("go list resolved no %s packages; run from the repository root", modulePath)
	}
	sort.Slice(listed, func(i, j int) bool { return listed[i].ImportPath < listed[j].ImportPath })

	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	var pkgs []*repoPkg
	for _, p := range listed {
		fset := token.NewFileSet()
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: make(map[*ast.Ident]types.Object)}
		tconf := &types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
		tpkg, err := tconf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("typecheck %s: %w", p.ImportPath, err)
		}
		pkgs = append(pkgs, &repoPkg{listedPackage: p, fset: fset, files: files, info: info, pkg: tpkg})
	}
	return pkgs, nil
}

// readArtifact reads and parses one committed artifact, pointing at -write
// when the file is missing.
func readArtifact[T any](path string, parse func([]byte) (*T, error)) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run `go run ./cmd/perflint -write` to create it)", err)
	}
	return parse(data)
}

// decodeStrict decodes one JSON document, rejecting unknown fields so a
// typo in a hand-edited artifact fails loudly instead of gating nothing.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeArtifact writes v as indented JSON with a trailing newline.
func writeArtifact(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func relPath(abs string) string {
	wd, err := os.Getwd()
	if err != nil {
		return abs
	}
	if rel, err := filepath.Rel(wd, abs); err == nil {
		return rel
	}
	return abs
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
