package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"io/fs"
	"os"
	"strings"

	"columbia/internal/analysis/detlint"
)

// distPath is the package whose ProtocolVersion constant stamps the wire
// schema.
const distPath = "columbia/internal/dist"

// WireSchema is the committed wire-shape snapshot.
type WireSchema struct {
	// ProtocolVersion is the dist.ProtocolVersion the shapes were
	// snapshotted at; a shape change at an unchanged version is the drift
	// the gate exists to refuse.
	ProtocolVersion int `json:"protocol_version"`
	// Structs maps "<pkgpath>.<Name>" to the ordered exported fields.
	Structs map[string][]WireField `json:"structs"`
}

// WireField is one exported struct field as gob sees it.
type WireField struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// parseWireSchema decodes a schema file, rejecting unknown fields so a
// typo in a hand-edited schema fails loudly instead of gating nothing.
func parseWireSchema(data []byte) (*WireSchema, error) {
	var s WireSchema
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("wire schema: %w", err)
	}
	if s.Structs == nil {
		s.Structs = map[string][]WireField{}
	}
	return &s, nil
}

// readWireSchema reads and parses the committed schema, pointing at -write
// when the file is missing.
func readWireSchema(path string) (*WireSchema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run `go run ./cmd/perflint -write` to create it)", err)
	}
	return parseWireSchema(data)
}

// wireShapes collects the gob shape of every //perflint:wire struct in the
// repository — its exported fields in declaration order, since gob never
// encodes unexported ones — keyed "<pkgpath>.<Name>".
func wireShapes(pkgs []*repoPkg) map[string][]WireField {
	shapes := make(map[string][]WireField)
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil && len(gd.Specs) == 1 {
						doc = gd.Doc
					}
					if _, ok := detlint.WireMarker(doc); !ok {
						continue
					}
					tn, _ := p.info.Defs[ts.Name].(*types.TypeName)
					if tn == nil {
						continue
					}
					st, ok := tn.Type().Underlying().(*types.Struct)
					if !ok {
						continue
					}
					var fields []WireField
					for i := 0; i < st.NumFields(); i++ {
						if field := st.Field(i); field.Exported() {
							fields = append(fields, WireField{Name: field.Name(), Type: fieldTypeString(p.pkg, field.Type())})
						}
					}
					shapes[p.ImportPath+"."+ts.Name.Name] = fields
				}
			}
		}
	}
	return shapes
}

// fieldTypeString renders a field type deterministically: same-package
// names bare, foreign names qualified by full import path.
func fieldTypeString(pkg *types.Package, t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Path()
	})
}

// shapeDiff describes the first difference between the committed and
// current shape, or "" when identical. Order matters: gob transmits field
// names, but a reorder still changes the reviewed protocol surface.
func shapeDiff(want, got []WireField) string {
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

// distProtocolVersion reads dist.ProtocolVersion from the type-checked
// dist package.
func distProtocolVersion(pkgs []*repoPkg) (int, bool) {
	for _, p := range pkgs {
		if p.ImportPath != distPath {
			continue
		}
		c, _ := p.pkg.Scope().Lookup("ProtocolVersion").(*types.Const)
		if c == nil {
			return 0, false
		}
		v, ok := constant.Int64Val(constant.ToInt(c.Val()))
		return int(v), ok
	}
	return 0, false
}

// gateWire diffs the current wire shapes against the committed schema and
// the dist.ProtocolVersion it was stamped with. A drifted or removed
// struct asks for a version bump while the version is unchanged, and only
// for regeneration once it has moved.
func gateWire(schema *WireSchema, shapes map[string][]WireField, pv int, hasPV bool) []string {
	const regenerate = "regenerate with `go run ./cmd/perflint -write`"
	var failures []string
	bumped := false
	switch {
	case !hasPV:
		failures = append(failures,
			"WIRE dist.ProtocolVersion constant not found — the schema snapshot cannot be validated against a protocol version")
	case pv != schema.ProtocolVersion:
		bumped = true
		failures = append(failures, fmt.Sprintf(
			"WIRE schema snapshotted at protocol %d but dist declares %d — %s", schema.ProtocolVersion, pv, regenerate))
	}
	fix := "bump dist.ProtocolVersion, then " + regenerate
	if bumped {
		fix = regenerate
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
				"WIRE %s: stale schema entry — the struct is gone or lost its //perflint:wire marker, which is a protocol change; %s", key, fix))
		}
	}
	return failures
}

// writeWireSchema re-snapshots the wire schema — unless a committed struct
// drifted or disappeared while dist.ProtocolVersion still equals the
// committed snapshot's version. A tool that regenerated past that check
// would erase exactly the drift the gate exists to refuse. New structs
// snapshot freely: adding a message type is backward compatible at the gob
// layer.
func writeWireSchema(path string, shapes map[string][]WireField, pv int, hasPV bool) error {
	if !hasPV {
		return errors.New("wire schema: dist.ProtocolVersion constant not found; cannot stamp the snapshot")
	}
	committed := &WireSchema{}
	data, err := os.ReadFile(path)
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
				"refusing to re-snapshot a drifted wire schema at unchanged protocol version %d (%s) — bump dist.ProtocolVersion first, then -write",
				pv, strings.Join(changes, "; "))
		}
	}
	if err := writeArtifact(path, &WireSchema{ProtocolVersion: pv, Structs: shapes}); err != nil {
		return err
	}
	fmt.Printf("perflint: wrote %s (%d wire structs at protocol %d)\n", path, len(shapes), pv)
	return nil
}
