package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestParseWireSchema: a misspelled key must fail rather than parse as an
// empty schema that gates nothing.
func TestParseWireSchema(t *testing.T) {
	s, err := parseWireSchema([]byte(`{"protocol_version": 2, "structs": {"p.T": [{"name": "A", "type": "int"}]}}`))
	if err != nil {
		t.Fatalf("parseWireSchema: %v", err)
	}
	if s.ProtocolVersion != 2 || len(s.Structs["p.T"]) != 1 {
		t.Fatalf("parsed schema = %+v", s)
	}
	for _, bad := range []string{
		`{"protocol_versoin": 2, "structs": {}}`,
		`{"protocol_version": 2, "structs": {"p.T": [{"name": "A", "typ": "int"}]}}`,
	} {
		if _, err := parseWireSchema([]byte(bad)); err == nil {
			t.Errorf("parseWireSchema(%s) succeeded, want an error", bad)
		}
	}
}

// TestCommittedWireSchema: a malformed or emptied wire schema must fail
// the test suite too, not first the gate in verify.sh. It must at least
// carry a protocol version and the handshake struct.
func TestCommittedWireSchema(t *testing.T) {
	schema, err := readWireSchema(filepath.Base(schemaPath))
	if err != nil {
		t.Fatal(err)
	}
	if schema.ProtocolVersion == 0 || len(schema.Structs[distPath+".Hello"]) == 0 {
		t.Errorf("committed wire schema lacks a protocol version or dist.Hello: %+v", schema)
	}
}

// wireFixture is a dist package with one struct per gate outcome, against
// a schema committed at protocol 1: Stable matches; Drifted retyped B;
// Fresh is new; Hidden only gained an unexported field, which gob never
// encodes; the schema's Gone no longer exists.
const wireFixture = `package dist

const ProtocolVersion = %d

//perflint:wire
type Stable struct {
	Seq  uint64
	Kind string
}

//perflint:wire
type Drifted struct {
	A int
	B string
}

//perflint:wire
type Fresh struct{ Payload []byte }

//perflint:wire
type Hidden struct {
	X    int
	seen bool
}

// Unmarked is not a wire struct and never enters the schema.
type Unmarked struct{ Y int }
`

func committedSchema() *WireSchema {
	return &WireSchema{ProtocolVersion: 1, Structs: map[string][]WireField{
		distPath + ".Stable":  {{Name: "Seq", Type: "uint64"}, {Name: "Kind", Type: "string"}},
		distPath + ".Drifted": {{Name: "A", Type: "int"}, {Name: "B", Type: "int"}},
		distPath + ".Hidden":  {{Name: "X", Type: "int"}},
		distPath + ".Gone":    {{Name: "X", Type: "int"}},
	}}
}

// loadDist type-checks one source file as the dist package.
func loadDist(t *testing.T, src string) []*repoPkg {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "wire.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: make(map[*ast.Ident]types.Object)}
	pkg, err := new(types.Config).Check(distPath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return []*repoPkg{{listedPackage: listedPackage{ImportPath: distPath}, fset: fset, files: []*ast.File{f}, info: info, pkg: pkg}}
}

// gateFixture runs the wire gate on wireFixture declaring version.
func gateFixture(t *testing.T, version int, schema *WireSchema) []string {
	t.Helper()
	pkgs := loadDist(t, fmt.Sprintf(wireFixture, version))
	pv, ok := distProtocolVersion(pkgs)
	if !ok || pv != version {
		t.Fatalf("distProtocolVersion = %d, %v; want %d", pv, ok, version)
	}
	return gateWire(schema, wireShapes(pkgs), pv, ok)
}

// currentSchema snapshots wireFixture's shapes at protocol 1: no drift.
func currentSchema(t *testing.T) *WireSchema {
	t.Helper()
	s := &WireSchema{ProtocolVersion: 1, Structs: wireShapes(loadDist(t, fmt.Sprintf(wireFixture, 1)))}
	if len(s.Structs) != 4 {
		t.Fatalf("wireShapes found %d structs, want the 4 marked ones: %v", len(s.Structs), s.Structs)
	}
	return s
}

// TestGateWire pins the wire gate's verdicts at the committed version:
// drift asks for a bump, new and stale structs are reported, unexported
// fields never count as drift, and a missing ProtocolVersion fails.
func TestGateWire(t *testing.T) {
	matchFailures(t, "unchanged version", gateFixture(t, 1, committedSchema()), []string{
		`^WIRE columbia/internal/dist\.Drifted: gob shape changed without a ProtocolVersion bump \(field 2 was B int, now B string\) .*bump dist\.ProtocolVersion, then regenerate`,
		`^WIRE columbia/internal/dist\.Fresh: wire struct not in the committed schema`,
		`^WIRE columbia/internal/dist\.Gone: stale schema entry .*bump dist\.ProtocolVersion, then regenerate`,
	})
	current := currentSchema(t)
	matchFailures(t, "no drift", gateFixture(t, 1, current), nil)
	if f := gateWire(current, current.Structs, 0, false); len(f) != 1 || !strings.Contains(f[0], "ProtocolVersion constant not found") {
		t.Errorf("missing ProtocolVersion: failures %q", f)
	}
}

// TestGateWireBumped pins the other arm of the version logic: the same
// drift with ProtocolVersion already bumped asks for regeneration instead
// of a bump, and a bump with no drift still asks to regenerate.
func TestGateWireBumped(t *testing.T) {
	matchFailures(t, "bumped version", gateFixture(t, 2, committedSchema()), []string{
		`^WIRE schema snapshotted at protocol 1 but dist declares 2 — regenerate`,
		`^WIRE columbia/internal/dist\.Drifted: schema entry is stale \(field 2 was B int, now B string\) — ProtocolVersion was bumped to 2; regenerate`,
		`^WIRE columbia/internal/dist\.Fresh: wire struct not in the committed schema`,
		`^WIRE columbia/internal/dist\.Gone: stale schema entry .*; regenerate`,
	})
	matchFailures(t, "bump without drift", gateFixture(t, 2, currentSchema(t)), []string{
		`^WIRE schema snapshotted at protocol 1 but dist declares 2 — regenerate`,
	})
}

// TestWriteWireSchemaRefusesDrift: -write must not re-snapshot a drifted
// or removed struct at the committed protocol version, may add a new
// struct at it, and re-snapshots anything once the version is bumped.
func TestWriteWireSchemaRefusesDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wire_schema.json")
	if err := writeArtifact(path, committedSchema()); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)

	shapes := wireShapes(loadDist(t, fmt.Sprintf(wireFixture, 1)))
	err := writeWireSchema(path, shapes, 1, true)
	if err == nil || !strings.Contains(err.Error(), "refusing to re-snapshot") ||
		!strings.Contains(err.Error(), "Drifted: field 2 was B int, now B string") ||
		!strings.Contains(err.Error(), "Gone was removed") {
		t.Fatalf("writeWireSchema at unchanged version: err = %v, want a refusal naming Drifted and Gone", err)
	}
	if after, _ := os.ReadFile(path); string(after) != string(before) {
		t.Fatal("refused write still modified the committed schema")
	}

	// Only an addition: allowed at the same version.
	grown := committedSchema()
	grown.Structs[distPath+".Extra"] = []WireField{{Name: "Z", Type: "int"}}
	if err := writeWireSchema(path, grown.Structs, 1, true); err != nil {
		t.Fatalf("adding a struct at the committed version: %v", err)
	}

	if err := writeWireSchema(path, shapes, 2, true); err != nil {
		t.Fatalf("writeWireSchema after a bump: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseWireSchema(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProtocolVersion != 2 || shapeDiff(got.Structs[distPath+".Drifted"], shapes[distPath+".Drifted"]) != "" {
		t.Fatalf("re-snapshot after bump = %+v", got)
	}
	if _, ok := got.Structs[distPath+".Gone"]; ok {
		t.Fatal("re-snapshot after bump kept the removed struct")
	}
}

// matchFailures requires exactly one failure per pattern, in order.
func matchFailures(t *testing.T, name string, got, patterns []string) {
	t.Helper()
	if len(got) != len(patterns) {
		t.Errorf("%s: %d failure(s), want %d:\n  %s", name, len(got), len(patterns), strings.Join(got, "\n  "))
		return
	}
	for i, p := range patterns {
		if !regexp.MustCompile(p).MatchString(got[i]) {
			t.Errorf("%s: failure %d = %q, want match for %q", name, i, got[i], p)
		}
	}
}
