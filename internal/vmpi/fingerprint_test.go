package vmpi

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"columbia/internal/analysis/analysistest"
	"columbia/internal/fault"
	"columbia/internal/machine"
	"columbia/internal/netmodel"
	"columbia/internal/noise"
	"columbia/internal/pinning"
)

// A memo-cache key must move whenever any of its inputs does, or two
// result-distinct configurations share a cache entry. The mutator tables
// below hold every type with a Fingerprint method to that: each maps a
// field, by name, to a change of that field alone from the type's base
// value. TestFingerprintCoversEveryField enumerates the fields by
// reflection, unexported ones included, so a new field without a mutator
// fails it, and so does a mutator that leaves the fingerprint unmoved or
// names a field that is gone.

// configMutators change one Config field each. OMP, Cluster and Net are
// expanded into their own fields; a Cluster or Net mutator installs a
// changed copy, so the shared base cluster is never written. Faults and
// Noise enter the key through their own Fingerprint methods, covered by
// planMutators and specMutators.
var configMutators = map[string]func(*Config){
	"Cluster.Nodes": func(c *Config) {
		withCluster(c, func(cl *machine.Cluster) { cl.Nodes = machine.NewSingleNode(machine.AltixBX2b).Nodes })
	},
	"Cluster.Fabric":         func(c *Config) { withCluster(c, func(cl *machine.Cluster) { cl.Fabric = machine.InfiniBand }) },
	"Cluster.IBCardsPerNode": func(c *Config) { withCluster(c, func(cl *machine.Cluster) { cl.IBCardsPerNode = 4 }) },
	"Cluster.IBConnsPerCard": func(c *Config) { withCluster(c, func(cl *machine.Cluster) { cl.IBConnsPerCard = 1024 }) },
	"Net.C":                  func(c *Config) { withNet(c, func(n *netmodel.Model) { n.C = machine.NewBX2bQuad() }) },
	"Net.MPT":                func(c *Config) { withNet(c, func(n *netmodel.Model) { n.MPT = machine.MPT111r }) },
	"Procs":                  func(c *Config) { c.Procs = 8 },
	"Threads":                func(c *Config) { c.Threads = 2 },
	"Nodes":                  func(c *Config) { c.Nodes = 2 },
	"Stride":                 func(c *Config) { c.Stride = 2 },
	"Pin":                    func(c *Config) { c.Pin = pinning.None },
	"ComputeFactor":          func(c *Config) { c.ComputeFactor = 1.7 },
	"OMP.SharedFraction":     func(c *Config) { c.OMP.SharedFraction = 0.3 },
	"OMP.Method":             func(c *Config) { c.OMP.Method = pinning.None },
	"OMP.Regions":            func(c *Config) { c.OMP.Regions = 4 },
	"OMP.SerialFraction":     func(c *Config) { c.OMP.SerialFraction = 0.25 },
	"OMP.MaxUseful":          func(c *Config) { c.OMP.MaxUseful = 8 },
	"OMP.SharedWorkingSet":   func(c *Config) { c.OMP.SharedWorkingSet = true },
	"RandomPattern":          func(c *Config) { c.RandomPattern = true },
	"Faults":                 func(c *Config) { c.Faults = fault.New().SlowNode(0, 2) },
	"Noise":                  func(c *Config) { c.Noise = noise.New().WithUniform(0.1).WithSeed(7) },
	"Sanitize":               func(c *Config) { c.Sanitize = true },
}

// planMutators change one fault.Plan field each through its builders. The
// base plan loses a node: a plan whose only directive is transient is
// empty.
var planMutators = map[string]func(*fault.Plan){
	"slowCPU":       func(p *fault.Plan) { p.SlowCPU(0, 1, 2) },
	"slowNode":      func(p *fault.Plan) { p.SlowNode(1, 2) },
	"bus":           func(p *fault.Plan) { p.DegradeBus(0, 1, 0.5) },
	"link":          func(p *fault.Plan) { p.DegradeLink(1, 0.5) },
	"fabric":        func(p *fault.Plan) { p.DegradeFabric(1, 0.5) },
	"down":          func(p *fault.Plan) { p.LoseNode(2) },
	"transient":     func(p *fault.Plan) { p.MarkTransient() },
	"workerKill":    func(p *fault.Plan) { p.KillWorker(1) },
	"workerCorrupt": func(p *fault.Plan) { p.CorruptReply(2) },
	"workerTrunc":   func(p *fault.Plan) { p.TruncateReply(2) },
	"workerStall":   func(p *fault.Plan) { p.StallWorker(1) },
	"seed":          func(p *fault.Plan) { p.WithSeed(5) },
}

// specMutators change one noise.Spec field each through its builders, from
// uniform jitter and a daemon window on every CPU. Only Pareto jitter has
// an alpha, and a change of kind from Pareto clears it, so alpha's
// mutator starts from Pareto jitter instead (paretoMutators).
var specMutators = map[string]func(*noise.Spec){
	"kind":    func(s *noise.Spec) { s.WithExp(0.1) },
	"amp":     func(s *noise.Spec) { s.WithUniform(0.2) },
	"seed":    func(s *noise.Spec) { s.WithSeed(7) },
	"period":  func(s *noise.Spec) { s.WithDaemon(20, 0.5, 3, 0) },
	"duty":    func(s *noise.Spec) { s.WithDaemon(10, 0.25, 3, 0) },
	"factor":  func(s *noise.Spec) { s.WithDaemon(10, 0.5, 2, 0) },
	"cpus":    func(s *noise.Spec) { s.WithDaemon(10, 0.5, 3, 4) },
	"replica": func(s *noise.Spec) { *s = *s.WithReplica(1) },
}

var paretoMutators = map[string]func(*noise.Spec){
	"alpha": func(s *noise.Spec) { s.WithPareto(0.1, 2) },
}

// withCluster and withNet install a changed copy of c's cluster or network
// model.
func withCluster(c *Config, change func(*machine.Cluster)) {
	cl := *c.Cluster
	change(&cl)
	c.Cluster = &cl
}

func withNet(c *Config, change func(*netmodel.Model)) {
	n := *c.Net
	change(&n)
	c.Net = &n
}

func baseFingerprintConfig() Config {
	return Config{Cluster: machine.NewSingleNode(machine.Altix3700), Procs: 4, Threads: 1}
}

// TestFingerprintCoversEveryField applies each mutator to a fresh base
// value and requires it to change its own field and no other, and to move
// the fingerprint. Every field of every type with a Fingerprint method in
// the module's non-test source must have a mutator.
func TestFingerprintCoversEveryField(t *testing.T) {
	// Bases share their clusters, so they print alike. Net models a second,
	// equal cluster: were it Cluster itself, a Cluster mutator would move
	// the key by splitting the two, whether or not Fingerprint reads the
	// field it changed.
	cl, netCl := machine.NewSingleNode(machine.Altix3700), machine.NewSingleNode(machine.Altix3700)
	covered := make(map[string]map[string]bool)
	coverKey(t, covered, func() *Config { return &Config{Cluster: cl, Net: netmodel.New(netCl), Procs: 4, Threads: 1} }, configMutators)
	coverKey(t, covered, func() *fault.Plan { return fault.New().LoseNode(3) }, planMutators)
	coverKey(t, covered, func() *noise.Spec { return noise.New().WithUniform(0.1).WithDaemon(10, 0.5, 3, 0) }, specMutators)
	coverKey(t, covered, func() *noise.Spec { return noise.New().WithPareto(0.1, 1.5) }, paretoMutators)
	for _, typ := range sortedKeys(covered) {
		for _, f := range sortedKeys(covered[typ]) {
			if !covered[typ][f] {
				t.Errorf("%s.%s has no fingerprint mutator; register one and make Fingerprint cover the field", typ, f)
			}
		}
	}
	for _, typ := range fingerprintTypes(t, filepath.Join("..", "..")) {
		if covered[typ] == nil {
			t.Errorf("%s has a Fingerprint method but no mutator table here; add one for each of its fields", typ)
		}
	}
}

// coverKey checks each of mutators against base, a builder of fresh
// values of a struct type with a Fingerprint method, and records in
// covered, under the type's key ("<pkgpath>.<Name>"), each of its fields
// and whether a mutator covers it.
func coverKey[T any](t *testing.T, covered map[string]map[string]bool, base func() *T, mutators map[string]func(*T)) {
	t.Helper()
	fp := func(v *T) string { return any(v).(interface{ Fingerprint() string }).Fingerprint() }
	st := reflect.TypeOf((*T)(nil)).Elem()
	typ := st.PkgPath() + "." + st.Name()
	if covered[typ] == nil {
		covered[typ] = make(map[string]bool)
	}
	before, fpBefore := leafFields(base()), fp(base())
	for f := range before {
		covered[typ][f] = covered[typ][f] || mutators[f] != nil
	}
	for _, name := range sortedKeys(mutators) {
		if _, ok := before[name]; !ok {
			t.Errorf("%s has a mutator for %s, a field it no longer declares", typ, name)
			continue
		}
		v := base()
		mutators[name](v)
		after := leafFields(v)
		for _, f := range sortedKeys(before) {
			switch changed := before[f] != after[f]; {
			case f == name && !changed:
				t.Errorf("%s's mutator for %s leaves the field unchanged", typ, name)
			case f != name && changed:
				t.Errorf("%s's mutator for %s also changes %s; a mutator must change its field alone", typ, name, f)
			}
		}
		if got := fp(v); got == fpBefore {
			t.Errorf("mutating %s.%s did not change Fingerprint():\n%s", typ, name, got)
		}
	}
}

// leafFields renders every field of the struct *v by name. It expands one
// level into a field that is a struct ("OMP.MaxUseful") or a non-nil
// pointer to one ("Cluster.Fabric"), unless the struct has a Fingerprint
// method and so a mutator table of its own.
func leafFields(v any) map[string]string {
	fingerprinter := reflect.TypeOf((*interface{ Fingerprint() string })(nil)).Elem()
	sv := reflect.ValueOf(v).Elem()
	out := make(map[string]string)
	for i := 0; i < sv.NumField(); i++ {
		name, f := sv.Type().Field(i).Name, sv.Field(i)
		if f.Kind() == reflect.Pointer && !f.IsNil() && !f.Type().Implements(fingerprinter) {
			f = f.Elem()
		}
		if f.Kind() != reflect.Struct {
			out[name] = fmt.Sprint(f)
			continue
		}
		for j := 0; j < f.NumField(); j++ {
			out[name+"."+f.Type().Field(j).Name] = fmt.Sprint(f.Field(j))
		}
	}
	return out
}

// fingerprintTypes parses every non-test Go file of the module under root
// and returns the types that declare a Fingerprint method, keyed
// "<pkgpath>.<Name>".
func fingerprintTypes(t *testing.T, root string) []string {
	t.Helper()
	var types []string
	for _, pd := range analysistest.ModuleDirs(t, root, "columbia") {
		names, err := filepath.Glob(filepath.Join(pd.Dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Name.Name != "Fingerprint" {
					continue
				}
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				id, ok := recv.(*ast.Ident)
				if !ok {
					t.Errorf("%s: cannot name the receiver type of a Fingerprint method", name)
					continue
				}
				types = append(types, pd.Path+"."+id.Name)
			}
		}
	}
	if len(types) == 0 {
		t.Fatalf("found no Fingerprint method under %s: the walk is broken", root)
	}
	sort.Strings(types)
	return types
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestFingerprintStableForEqualConfigs: independently built but equal
// configurations must share a cache entry.
func TestFingerprintStableForEqualConfigs(t *testing.T) {
	a := baseFingerprintConfig().Fingerprint()
	b := baseFingerprintConfig().Fingerprint()
	if a != b {
		t.Errorf("equal configs fingerprint differently:\n%s\n%s", a, b)
	}
}

// TestFingerprintSanitizeIff: the fingerprint changes iff the sanitizer
// toggle changes — sanitized and unsanitized runs must never alias a cache
// entry, while unsanitized fingerprints stay byte-identical to releases
// that predate the toggle (no "commsan" component at all).
func TestFingerprintSanitizeIff(t *testing.T) {
	off := baseFingerprintConfig()
	on := baseFingerprintConfig()
	on.Sanitize = true
	offFP, onFP := off.Fingerprint(), on.Fingerprint()
	if offFP == onFP {
		t.Errorf("Sanitize toggle does not change the fingerprint:\n%s", offFP)
	}
	if strings.Contains(offFP, "commsan") {
		t.Errorf("unsanitized fingerprint mentions commsan (breaks historical cache keys):\n%s", offFP)
	}
	if !strings.Contains(onFP, "commsan=1") {
		t.Errorf("sanitized fingerprint missing commsan component:\n%s", onFP)
	}
	on2 := baseFingerprintConfig()
	on2.Sanitize = true
	if on2.Fingerprint() != onFP {
		t.Errorf("equal sanitized configs fingerprint differently")
	}
}

// TestFingerprintNoiseIff: the fingerprint mentions noise iff a non-empty
// spec is attached — noiseless fingerprints stay byte-identical to
// releases that predate Config.Noise — and each ensemble replica of one
// seed keys its own cache entry while equal (seed, replica) pairs collide.
func TestFingerprintNoiseIff(t *testing.T) {
	silent := baseFingerprintConfig()
	noisy := baseFingerprintConfig()
	noisy.Noise = noise.New().WithExp(0.05).WithSeed(3)
	silentFP, noisyFP := silent.Fingerprint(), noisy.Fingerprint()
	if strings.Contains(silentFP, "noise") {
		t.Errorf("noiseless fingerprint mentions noise (breaks historical cache keys):\n%s", silentFP)
	}
	if noisyFP == silentFP {
		t.Errorf("noise spec does not change the fingerprint:\n%s", noisyFP)
	}
	if !strings.Contains(noisyFP, "noise=jitter=exp:0.05,seed=3") {
		t.Errorf("noisy fingerprint missing canonical noise component:\n%s", noisyFP)
	}
	// Replicas of one seed are distinct points; equal replicas collide.
	r1, r2 := baseFingerprintConfig(), baseFingerprintConfig()
	r1.Noise = noisy.Noise.WithReplica(1)
	r2.Noise = noisy.Noise.WithReplica(2)
	if r1.Fingerprint() == r2.Fingerprint() {
		t.Errorf("replicas 1 and 2 share a fingerprint:\n%s", r1.Fingerprint())
	}
	r1b := baseFingerprintConfig()
	r1b.Noise = noisy.Noise.WithReplica(1)
	if r1b.Fingerprint() != r1.Fingerprint() {
		t.Errorf("equal (seed, replica) configs fingerprint differently")
	}
	// An empty-but-non-nil spec is silence: no component, same cache entry.
	blank := baseFingerprintConfig()
	blank.Noise = noise.New()
	if blank.Fingerprint() != silentFP {
		t.Errorf("empty noise spec changed the fingerprint:\n%s", blank.Fingerprint())
	}
}
