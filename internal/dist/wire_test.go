package dist_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"columbia/internal/analysis/analysistest"
	"columbia/internal/analysis/detlint"
	"columbia/internal/core"
	"columbia/internal/dist"
)

var update = flag.Bool("update", false, "rewrite the wire schema after a dist.ProtocolVersion bump")

// schemaPath is the committed wire schema: the gob shape of every wire
// struct, stamped with the dist.ProtocolVersion it was snapshotted at.
const schemaPath = "testdata/wire_schema.json"

// modulePath prefixes the import path of every repository package.
const modulePath = "columbia"

// wireTypes lists every //detlint:wire struct: the messages a supervisor
// and its workers exchange, and the repository structs nested in them.
// TestWireMarkers holds this list and the markers in the source equal.
var wireTypes = []any{
	core.ClusterRef{},
	core.PointSpec{},
	dist.Hello{},
	dist.HelloAck{},
	dist.Reply{},
	dist.Request{},
	dist.WireError{},
}

// TestWireSchema gates the gob shape of the wire structs. The supervisor
// and its workers must agree on it, or a sweep on -workers N stops being
// byte-identical to the in-process one: a shape change without a
// dist.ProtocolVersion bump lets an old and a new binary shake hands and
// then misread each other's frames. After a deliberate bump, regenerate:
//
//	go test ./internal/dist -run TestWireSchema -update
//
// -update refuses to re-snapshot a drifted or removed struct while the
// version still equals the committed one.
func TestWireSchema(t *testing.T) {
	shapes := wireShapes(wireTypes)
	if *update {
		if err := writeWireSchema(schemaPath, shapes, dist.ProtocolVersion); err != nil {
			t.Fatal(err)
		}
		return
	}
	schema, err := readWireSchema(schemaPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range gateWire(schema, shapes, dist.ProtocolVersion) {
		t.Error(f)
	}
}

// TestWireMarkers holds wireTypes to the source: the structs marked
// //detlint:wire in the module's non-test files are exactly the listed
// ones, and every repository struct reachable through a wire struct's
// exported fields is itself a wire struct, so a nested struct cannot
// change shape unseen.
func TestWireMarkers(t *testing.T) {
	listed := make(map[string]bool)
	for _, v := range wireTypes {
		listed[typeKey(reflect.TypeOf(v))] = true
	}
	marked := markedStructs(t, filepath.Join("..", ".."))
	for _, key := range sortedKeys(marked) {
		if !listed[key] {
			t.Errorf("%s is marked //detlint:wire but missing from wireTypes: list it, so its shape is frozen", key)
		}
	}
	for _, key := range sortedKeys(listed) {
		if !marked[key] {
			t.Errorf("%s is in wireTypes but not marked //detlint:wire: restore the marker, so wirecover checks its fields are read", key)
		}
	}
	for _, v := range wireTypes {
		wt := reflect.TypeOf(v)
		for i := 0; i < wt.NumField(); i++ {
			if f := wt.Field(i); f.IsExported() {
				for _, nested := range repoStructs(f.Type) {
					if key := typeKey(nested); !listed[key] {
						t.Errorf("%s.%s carries %s, which is not a wire struct: mark it //detlint:wire and list it in wireTypes", typeKey(wt), f.Name, key)
					}
				}
			}
		}
	}
}

// markedStructs parses every non-test Go file of the module under root and
// returns the structs whose doc carries the //detlint:wire marker, keyed
// "<pkgpath>.<Name>".
func markedStructs(t *testing.T, root string) map[string]bool {
	t.Helper()
	marked := make(map[string]bool)
	for _, pd := range analysistest.ModuleDirs(t, root, modulePath) {
		names, err := filepath.Glob(filepath.Join(pd.Dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if _, ok := detlint.WireMarker(gd, ts); ok {
							marked[pd.Path+"."+ts.Name.Name] = true
						}
					}
				}
			}
		}
	}
	if len(marked) == 0 {
		t.Fatalf("found no //detlint:wire struct under %s: the walk is broken", root)
	}
	return marked
}

// repoStructs returns the repository structs t reaches through pointers,
// slices, arrays and maps; gob encodes all of them.
func repoStructs(t reflect.Type) []reflect.Type {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return repoStructs(t.Elem())
	case reflect.Map:
		return append(repoStructs(t.Key()), repoStructs(t.Elem())...)
	case reflect.Struct:
		if strings.HasPrefix(t.PkgPath(), modulePath+"/") {
			return []reflect.Type{t}
		}
	}
	return nil
}

// wireSchema is the committed wire-shape snapshot.
type wireSchema struct {
	// ProtocolVersion is the dist.ProtocolVersion the shapes were
	// snapshotted at; a shape change at an unchanged version is the drift
	// the gate exists to refuse.
	ProtocolVersion int `json:"protocol_version"`
	// Structs maps "<pkgpath>.<Name>" to the ordered exported fields.
	Structs map[string][]wireField `json:"structs"`
}

// wireField is one exported struct field as gob sees it.
type wireField struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

func typeKey(t reflect.Type) string { return t.PkgPath() + "." + t.Name() }

// wireShapes renders each struct's exported fields in declaration order,
// since gob never encodes unexported ones, keyed by typeKey.
func wireShapes(structs []any) map[string][]wireField {
	shapes := make(map[string][]wireField)
	for _, v := range structs {
		st := reflect.TypeOf(v)
		var fields []wireField
		for i := 0; i < st.NumField(); i++ {
			if f := st.Field(i); f.IsExported() {
				fields = append(fields, wireField{Name: f.Name, Type: typeString(f.Type, st.PkgPath())})
			}
		}
		shapes[typeKey(st)] = fields
	}
	return shapes
}

// typeString renders t as go/types does from inside package pkg:
// same-package names bare, foreign names by full import path. reflect
// cannot tell byte from uint8, so uint8 prints as byte.
func typeString(t reflect.Type, pkg string) string {
	switch {
	case t.Kind() == reflect.Uint8 && t.PkgPath() == "":
		return "byte"
	case t.Name() != "" && (t.PkgPath() == "" || t.PkgPath() == pkg):
		return t.Name()
	case t.Name() != "":
		return typeKey(t)
	}
	switch t.Kind() {
	case reflect.Pointer:
		return "*" + typeString(t.Elem(), pkg)
	case reflect.Slice:
		return "[]" + typeString(t.Elem(), pkg)
	case reflect.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), typeString(t.Elem(), pkg))
	case reflect.Map:
		return "map[" + typeString(t.Key(), pkg) + "]" + typeString(t.Elem(), pkg)
	}
	return t.String()
}

// parseWireSchema decodes a schema file, rejecting unknown fields so a
// typo in a hand-edited schema fails loudly instead of gating nothing.
func parseWireSchema(data []byte) (*wireSchema, error) {
	var s wireSchema
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("wire schema: %w", err)
	}
	if s.Structs == nil {
		s.Structs = map[string][]wireField{}
	}
	return &s, nil
}

// readWireSchema reads and parses the committed schema, pointing at
// -update when the file is missing.
func readWireSchema(file string) (*wireSchema, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, fmt.Errorf("%w (run `go test ./internal/dist -run TestWireSchema -update` to create it)", err)
	}
	return parseWireSchema(data)
}

// shapeDiff describes the first difference between the committed and
// current shape, or "" when identical. Order matters: gob transmits field
// names, but a reorder still changes the reviewed protocol surface.
func shapeDiff(want, got []wireField) string {
	for i := 0; i < len(want) && i < len(got); i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("field %d was %s %s, now %s %s", i+1, want[i].Name, want[i].Type, got[i].Name, got[i].Type)
		}
	}
	if len(want) != len(got) {
		return fmt.Sprintf("committed %d exported fields, now %d", len(want), len(got))
	}
	return ""
}

// gateWire diffs the current wire shapes against the committed schema and
// the dist.ProtocolVersion it was stamped with. A drifted or removed
// struct asks for a version bump while the version is unchanged, and only
// for regeneration once it has moved.
func gateWire(schema *wireSchema, shapes map[string][]wireField, pv int) []string {
	const regenerate = "regenerate with `go test ./internal/dist -run TestWireSchema -update`"
	var failures []string
	bumped := pv != schema.ProtocolVersion
	fix := "bump dist.ProtocolVersion, then " + regenerate
	if bumped {
		fix = regenerate
		failures = append(failures, fmt.Sprintf(
			"WIRE schema snapshotted at protocol %d but dist declares %d — %s", schema.ProtocolVersion, pv, regenerate))
	}
	for _, key := range sortedKeys(shapes) {
		want, ok := schema.Structs[key]
		if !ok {
			failures = append(failures, fmt.Sprintf(
				"WIRE %s: wire struct not in the committed schema — snapshot it so future drift is caught; %s", key, regenerate))
			continue
		}
		diff := shapeDiff(want, shapes[key])
		switch {
		case diff == "":
		case bumped:
			failures = append(failures, fmt.Sprintf(
				"WIRE %s: schema entry is stale (%s) — ProtocolVersion was bumped to %d; %s", key, diff, pv, fix))
		default:
			failures = append(failures, fmt.Sprintf(
				"WIRE %s: gob shape changed without a ProtocolVersion bump (%s) — an old and a new process would shake hands and then misread each other's frames; %s",
				key, diff, fix))
		}
	}
	for _, key := range sortedKeys(schema.Structs) {
		if _, ok := shapes[key]; !ok {
			failures = append(failures, fmt.Sprintf(
				"WIRE %s: stale schema entry — the struct is gone or lost its //detlint:wire marker, which is a protocol change; %s", key, fix))
		}
	}
	return failures
}

// writeWireSchema re-snapshots the wire schema — unless a committed struct
// drifted or disappeared while dist.ProtocolVersion still equals the
// committed snapshot's version. Regenerating past that check would erase
// exactly the drift the gate exists to refuse. New structs snapshot
// freely: adding a message type is backward compatible at the gob layer.
func writeWireSchema(file string, shapes map[string][]wireField, pv int) error {
	committed := &wireSchema{}
	data, err := os.ReadFile(file)
	switch {
	case err == nil:
		if committed, err = parseWireSchema(data); err != nil {
			return err
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	if pv == committed.ProtocolVersion {
		var changes []string
		for _, key := range sortedKeys(committed.Structs) {
			cur, ok := shapes[key]
			if !ok {
				changes = append(changes, key+" was removed")
			} else if diff := shapeDiff(committed.Structs[key], cur); diff != "" {
				changes = append(changes, key+": "+diff)
			}
		}
		if len(changes) > 0 {
			return fmt.Errorf(
				"refusing to re-snapshot a drifted wire schema at unchanged protocol version %d (%s) — bump dist.ProtocolVersion first, then -update",
				pv, strings.Join(changes, "; "))
		}
	}
	out, err := json.MarshalIndent(&wireSchema{ProtocolVersion: pv, Structs: shapes}, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(file, append(out, '\n'), 0o644)
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

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

// Fixture wire structs, one per gate outcome against fixtureSchema
// (protocol 1): stable matches; drifted retyped B; fresh is new; hidden
// only gained an unexported field, which gob never encodes; the schema's
// gone no longer exists.
type (
	stable struct {
		Seq  uint64
		Kind string
	}
	drifted struct {
		A int
		B string
	}
	fresh  struct{ Payload []byte }
	hidden struct {
		X    int
		seen bool
	}
)

var fixtureTypes = []any{stable{}, drifted{}, fresh{}, hidden{}}

const fixturePkg = "columbia/internal/dist_test"

func fixtureSchema() *wireSchema {
	return &wireSchema{ProtocolVersion: 1, Structs: map[string][]wireField{
		fixturePkg + ".stable":  {{Name: "Seq", Type: "uint64"}, {Name: "Kind", Type: "string"}},
		fixturePkg + ".drifted": {{Name: "A", Type: "int"}, {Name: "B", Type: "int"}},
		fixturePkg + ".hidden":  {{Name: "X", Type: "int"}},
		fixturePkg + ".gone":    {{Name: "X", Type: "int"}},
	}}
}

// TestGateWire pins the gate's verdicts at the committed version: drift
// asks for a bump, new and stale structs are reported, and unexported
// fields never count as drift.
func TestGateWire(t *testing.T) {
	shapes := wireShapes(fixtureTypes)
	matchFailures(t, "unchanged version", gateWire(fixtureSchema(), shapes, 1), []string{
		`^WIRE columbia/internal/dist_test\.drifted: gob shape changed without a ProtocolVersion bump \(field 2 was B int, now B string\) .*bump dist\.ProtocolVersion, then regenerate`,
		`^WIRE columbia/internal/dist_test\.fresh: wire struct not in the committed schema`,
		`^WIRE columbia/internal/dist_test\.gone: stale schema entry .*bump dist\.ProtocolVersion, then regenerate`,
	})
	current := &wireSchema{ProtocolVersion: 1, Structs: shapes}
	matchFailures(t, "no drift", gateWire(current, shapes, 1), nil)
}

// TestGateWireBumped pins the other arm of the version logic: the same
// drift with ProtocolVersion already bumped asks for regeneration instead
// of a bump, and a bump with no drift still asks to regenerate.
func TestGateWireBumped(t *testing.T) {
	shapes := wireShapes(fixtureTypes)
	matchFailures(t, "bumped version", gateWire(fixtureSchema(), shapes, 2), []string{
		`^WIRE schema snapshotted at protocol 1 but dist declares 2 — regenerate`,
		`^WIRE columbia/internal/dist_test\.drifted: schema entry is stale \(field 2 was B int, now B string\) — ProtocolVersion was bumped to 2; regenerate`,
		`^WIRE columbia/internal/dist_test\.fresh: wire struct not in the committed schema`,
		`^WIRE columbia/internal/dist_test\.gone: stale schema entry .*; regenerate`,
	})
	current := &wireSchema{ProtocolVersion: 1, Structs: shapes}
	matchFailures(t, "bump without drift", gateWire(current, shapes, 2), []string{
		`^WIRE schema snapshotted at protocol 1 but dist declares 2 — regenerate`,
	})
}

// TestWriteWireSchemaRefusesDrift: -update must not re-snapshot a drifted
// or removed struct at the committed protocol version, may add a new
// struct at it, and re-snapshots anything once the version is bumped.
func TestWriteWireSchemaRefusesDrift(t *testing.T) {
	file := filepath.Join(t.TempDir(), "wire_schema.json")
	committed := fixtureSchema()
	if err := writeWireSchema(file, committed.Structs, committed.ProtocolVersion); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(file)

	shapes := wireShapes(fixtureTypes)
	err := writeWireSchema(file, shapes, 1)
	if err == nil || !strings.Contains(err.Error(), "refusing to re-snapshot") ||
		!strings.Contains(err.Error(), "drifted: field 2 was B int, now B string") ||
		!strings.Contains(err.Error(), "gone was removed") {
		t.Fatalf("writeWireSchema at unchanged version: err = %v, want a refusal naming drifted and gone", err)
	}
	if after, _ := os.ReadFile(file); string(after) != string(before) {
		t.Fatal("refused write still modified the committed schema")
	}

	// Only an addition: allowed at the same version.
	grown := fixtureSchema()
	grown.Structs[fixturePkg+".extra"] = []wireField{{Name: "Z", Type: "int"}}
	if err := writeWireSchema(file, grown.Structs, 1); err != nil {
		t.Fatalf("adding a struct at the committed version: %v", err)
	}

	if err := writeWireSchema(file, shapes, 2); err != nil {
		t.Fatalf("writeWireSchema after a bump: %v", err)
	}
	got, err := readWireSchema(file)
	if err != nil {
		t.Fatal(err)
	}
	if got.ProtocolVersion != 2 || shapeDiff(got.Structs[fixturePkg+".drifted"], shapes[fixturePkg+".drifted"]) != "" {
		t.Fatalf("re-snapshot after bump = %+v", got)
	}
	if _, ok := got.Structs[fixturePkg+".gone"]; ok {
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
