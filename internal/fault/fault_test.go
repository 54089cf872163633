package fault

import (
	"math"
	"strings"
	"testing"

	"columbia/internal/machine"
)

func TestFaultNilPlanIsHealthy(t *testing.T) {
	var p *Plan
	if !p.Empty() {
		t.Error("nil plan should be empty")
	}
	if f := p.CPUFactor(machine.Loc{Node: 0, CPU: 3}); f != 1 {
		t.Errorf("nil CPUFactor = %g", f)
	}
	if s := p.BusScale(0, 1); s != 1 {
		t.Errorf("nil BusScale = %g", s)
	}
	if s := p.LinkScale(2, 1.5); s != 1 {
		t.Errorf("nil LinkScale = %g", s)
	}
	if s := p.FabricScale(0); s != 1 {
		t.Errorf("nil FabricScale = %g", s)
	}
	if p.NodeDown(0) || p.Transient() {
		t.Error("nil plan reports faults")
	}
	if fp := p.Fingerprint(); fp != "" {
		t.Errorf("nil fingerprint = %q", fp)
	}
	if New().Fingerprint() != "" {
		t.Error("empty plan fingerprint should be empty")
	}
}

func TestFaultQueries(t *testing.T) {
	p := New().
		SlowNode(0, 1.2).
		SlowCPU(0, 3, 1.5).
		DegradeBus(1, 2, 0.5).
		DegradeLink(2, 0.25).
		DegradeFabric(0, 0.5).
		LoseNode(3)
	if f := p.CPUFactor(machine.Loc{Node: 0, CPU: 3}); math.Abs(f-1.8) > 1e-12 {
		t.Errorf("compounded CPUFactor = %g, want 1.8", f)
	}
	if f := p.CPUFactor(machine.Loc{Node: 0, CPU: 4}); f != 1.2 {
		t.Errorf("node-wide CPUFactor = %g, want 1.2", f)
	}
	if f := p.CPUFactor(machine.Loc{Node: 1, CPU: 3}); f != 1 {
		t.Errorf("unfaulted CPUFactor = %g", f)
	}
	if s := p.BusScale(1, 2); s != 0.5 {
		t.Errorf("BusScale = %g", s)
	}
	if s := p.LinkScale(2, 123.4); s != 0.25 {
		t.Errorf("steady LinkScale = %g", s)
	}
	if s := p.FabricScale(0); s != 0.5 {
		t.Errorf("FabricScale = %g", s)
	}
	if !p.NodeDown(3) || p.NodeDown(0) {
		t.Error("NodeDown wrong")
	}
	if p.Transient() {
		t.Error("plan not marked transient")
	}
	if !p.MarkTransient().Transient() {
		t.Error("MarkTransient did not take")
	}
}

func TestFaultFlappingLinkIsDeterministicSquareWave(t *testing.T) {
	p := New().FlapLink(1, 0.010, 0.5, 0.1)
	// First half of every period at full scale, second half degraded.
	cases := []struct {
		t    float64
		want float64
	}{
		{0, 1}, {0.004, 1}, {0.005, 0.1}, {0.009, 0.1},
		{0.010, 1}, {0.014, 1}, {0.0151, 0.1},
	}
	for _, c := range cases {
		if got := p.LinkScale(1, c.t); got != c.want {
			t.Errorf("LinkScale(t=%g) = %g, want %g", c.t, got, c.want)
		}
	}
	// Repeated evaluation yields identical values (pure function of t).
	for i := 0; i < 3; i++ {
		if got := p.LinkScale(1, 0.007); got != 0.1 {
			t.Errorf("repeat %d: LinkScale = %g", i, got)
		}
	}
}

func TestFaultScaleClamping(t *testing.T) {
	p := New().DegradeLink(0, 0) // fully down clamps to minScale, not zero
	if s := p.LinkScale(0, 0); s <= 0 {
		t.Errorf("fully-down link scale = %g, must stay positive", s)
	}
	p = New().SlowCPU(0, 0, 0.5) // "speedups" clamp to no-op
	if f := p.CPUFactor(machine.Loc{}); f != 1 {
		t.Errorf("sub-unity slowdown factor = %g, want clamped to 1", f)
	}
}

func TestFaultFingerprintCanonical(t *testing.T) {
	a := New().SlowCPU(0, 3, 1.5).DegradeLink(1, 0.25).LoseNode(2)
	b := New().LoseNode(2).DegradeLink(1, 0.25).SlowCPU(0, 3, 1.5)
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("insertion order changed fingerprint:\n a=%s\n b=%s", a.Fingerprint(), b.Fingerprint())
	}
	if a.Fingerprint() == a.MarkTransient().Fingerprint() {
		t.Error("transient flag must be fingerprint-visible")
	}
	c := New().SlowCPU(0, 3, 1.5).DegradeLink(1, 0.26).LoseNode(2)
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different scales must not collide")
	}
}

func TestFaultParseRoundTrip(t *testing.T) {
	spec := "slowcpu=0:3:1.5,slownode=1:1.13,buslow=0:2:0.5,linkdown=1:0.25," +
		"flap=2:0.01:0.5:0.1,fabric=0:0.5,nodedown=3,transient"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(p.Fingerprint())
	if err != nil {
		t.Fatalf("fingerprint %q did not re-parse: %v", p.Fingerprint(), err)
	}
	if p.Fingerprint() != q.Fingerprint() {
		t.Errorf("round trip drifted:\n p=%s\n q=%s", p.Fingerprint(), q.Fingerprint())
	}
	if !p.NodeDown(3) || !p.Transient() {
		t.Error("parsed plan lost directives")
	}
	if f := p.CPUFactor(machine.Loc{Node: 0, CPU: 3}); f != 1.5 {
		t.Errorf("parsed slowcpu factor = %g", f)
	}
}

func TestFaultWorkerChaosDirectives(t *testing.T) {
	p, err := Parse("wkill=3,wcorrupt=2,wtrunc=5,wstall=0")
	if err != nil {
		t.Fatal(err)
	}
	if p.Empty() {
		t.Error("chaos-only plan must not be empty (it must split the memo cache)")
	}
	if r, ok := p.WorkerKillRequest(); !ok || r != 4 {
		t.Errorf("WorkerKillRequest = %d,%v, want 4,true (serve 3, die on the 4th)", r, ok)
	}
	if n, ok := p.WorkerCorruptReply(); !ok || n != 2 {
		t.Errorf("WorkerCorruptReply = %d,%v, want 2,true", n, ok)
	}
	if n, ok := p.WorkerTruncateReply(); !ok || n != 5 {
		t.Errorf("WorkerTruncateReply = %d,%v, want 5,true", n, ok)
	}
	if r, ok := p.WorkerStallRequest(); !ok || r != 1 {
		t.Errorf("WorkerStallRequest = %d,%v, want 1,true (hang on the very first point)", r, ok)
	}
	// The simulated machine is untouched: chaos is infrastructure sabotage.
	if f := p.CPUFactor(machine.Loc{}); f != 1 {
		t.Errorf("chaos plan perturbed CPUFactor = %g", f)
	}
	if p.NodeDown(0) {
		t.Error("chaos plan downed a node")
	}
	// Round trip through the canonical fingerprint.
	fp := p.Fingerprint()
	q, err := Parse(fp)
	if err != nil {
		t.Fatalf("fingerprint %q did not re-parse: %v", fp, err)
	}
	if q.Fingerprint() != fp {
		t.Errorf("chaos round trip drifted:\n p=%s\n q=%s", fp, q.Fingerprint())
	}
	// A nil plan schedules nothing.
	var nilPlan *Plan
	if _, ok := nilPlan.WorkerKillRequest(); ok {
		t.Error("nil plan scheduled a worker kill")
	}
}

func TestFaultParseErrors(t *testing.T) {
	cases := []struct {
		spec, wantSub string
	}{
		{"bogus=1", "unknown directive"},
		{"slowcpu=1:2", "NODE:CPU:FACTOR"},
		{"slowcpu=0:0:0.5", "factor must be >= 1"},
		{"linkdown=0:1.5", "must be in (0, 1]"},
		{"linkdown=0:0", "must be in (0, 1]"},
		{"flap=0:-1:0.5:0.5", "period must be positive"},
		{"flap=0:1:2:0.5", "duty must be in [0, 1]"},
		{"nodedown=x", "bad number"},
		{"nodedown=1.5", "non-negative integer"},
		{"slowcpu", "not name=args"},
		{"wkill=1:2", "POINTS"},
		{"wkill=-1", "non-negative integer"},
		{"wcorrupt=0", "reply index must be >= 1"},
		{"wtrunc=0", "reply index must be >= 1"},
		{"wstall=0.5", "non-negative integer"},
		// Non-finite numbers are rejected in every position, and an index
		// or count must fit an int exactly: 1e300 would convert to an
		// implementation-defined node that renders as -9223372036854775808.
		{"nodedown=1e300", "within int range"},
		{"nodedown=9223372036854775808", "within int range"},
		{"wcorrupt=1e300", "within int range"},
		{"slownode=0:Inf", "bad number"},
		{"slownode=0:NaN", "bad number"},
		{"slownode=-inf:1.5", "bad number"},
		{"flap=0:NaN:0.5:0.5", "bad number"},
		{"linkdown=0:nan", "bad number"},
		{"wkill=Inf", "bad number"},
		{"slowcpu=0:0.5:3", "non-negative integer"},
		{"slowcpu=0:-1:3", "non-negative integer"},
		{"buslow=0:2.5:0.5", "non-negative integer"},
	}
	for _, c := range cases {
		if _, err := Parse(c.spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.spec, c.wantSub)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) = %v, want error containing %q", c.spec, err, c.wantSub)
		}
	}
	// Empty specs and stray commas are fine and healthy.
	for _, s := range []string{"", " ", ",", "slownode=0:1.1,"} {
		if _, err := Parse(s); err != nil {
			t.Errorf("Parse(%q) failed: %v", s, err)
		}
	}
}
