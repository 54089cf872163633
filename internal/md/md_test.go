package md

import (
	"math"
	"testing"
	"testing/quick"

	"columbia/internal/machine"
	"columbia/internal/omp"
	"columbia/internal/par"
	"columbia/internal/vmpi"
)

func testConfig(cells int) Config {
	cfg := DefaultConfig(cells)
	cfg.Cutoff = 2.5 // keep small test boxes meaningful
	return cfg
}

func TestLatticeAndVelocities(t *testing.T) {
	cfg := testConfig(3)
	s := NewSystem(cfg)
	if len(s.X) != 108 {
		t.Fatalf("atoms = %d, want 4*27", len(s.X))
	}
	// Zero net momentum.
	m := s.Momentum()
	for d := 0; d < 3; d++ {
		if math.Abs(m[d]) > 1e-9 {
			t.Errorf("net momentum[%d] = %g", d, m[d])
		}
	}
	// Temperature matches: KE = 3/2 N T.
	wantKE := 1.5 * float64(len(s.X)) * cfg.Temp
	if math.Abs(s.KineticE()-wantKE) > 1e-6*wantKE {
		t.Errorf("KE = %g, want %g", s.KineticE(), wantKE)
	}
	// All atoms inside the box, distinct positions.
	box := cfg.BoxLen()
	for i, x := range s.X {
		for d := 0; d < 3; d++ {
			if x[d] < 0 || x[d] >= box {
				t.Fatalf("atom %d outside box: %v", i, x)
			}
		}
	}
}

func TestEnergyConservation(t *testing.T) {
	cfg := testConfig(3)
	s := NewSystem(cfg)
	team := omp.NewTeam(2)
	s.Forces(team)
	e0 := s.TotalE()
	for i := 0; i < 40; i++ {
		s.Step(team)
	}
	e1 := s.TotalE()
	drift := math.Abs(e1-e0) / math.Abs(e0)
	if drift > 2e-3 {
		t.Errorf("energy drift %.3g over 40 steps (E %g -> %g)", drift, e0, e1)
	}
	// Momentum stays zero (forces are antisymmetric).
	m := s.Momentum()
	for d := 0; d < 3; d++ {
		if math.Abs(m[d]) > 1e-7 {
			t.Errorf("momentum[%d] drifted to %g", d, m[d])
		}
	}
}

func TestCellsMatchBruteForce(t *testing.T) {
	// Property: the linked-cell force equals the brute-force force.
	f := func(seed uint8) bool {
		cfg := testConfig(3)
		s := NewSystem(cfg)
		// Perturb positions deterministically.
		for i := range s.X {
			s.X[i][0] += 0.01 * math.Sin(float64(seed)+float64(i))
		}
		box := cfg.BoxLen()
		rc2 := cfg.EffectiveCutoff() * cfg.EffectiveCutoff()
		g := buildCells(s.X, box, cfg.EffectiveCutoff())
		for _, i := range []int{0, 17, 53, 107} {
			fc, _ := pairForce(s.X, i, g, box, rc2)
			var fb [3]float64
			for j := range s.X {
				if j == i {
					continue
				}
				df, _ := ljPair(s.X[i], s.X[j], box, rc2)
				for d := 0; d < 3; d++ {
					fb[d] += df[d]
				}
			}
			for d := 0; d < 3; d++ {
				if math.Abs(fc[d]-fb[d]) > 1e-9*(1+math.Abs(fb[d])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3}); err != nil {
		t.Error(err)
	}
}

func TestTeamInvariance(t *testing.T) {
	cfg := testConfig(2)
	a := NewSystem(cfg)
	b := NewSystem(cfg)
	a.Run(omp.NewTeam(1), 10)
	b.Run(omp.NewTeam(4), 10)
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("trajectories diverge with team size at atom %d", i)
		}
	}
}

func TestMPIMatchesSerial(t *testing.T) {
	cfg := testConfig(2)
	serial := NewSystem(cfg)
	serial.Run(omp.NewTeam(1), 8)
	for _, eng := range engines {
		for _, procs := range []int{2, 3} {
			results := make([]*System, procs)
			eng.run(t, procs, func(c par.Comm) {
				results[c.Rank()] = RunMPI(c, cfg, 8)
			})
			for r, sys := range results {
				for i := range serial.X {
					if serial.X[i] != sys.X[i] {
						t.Fatalf("%s procs=%d rank=%d atom %d: %v != %v",
							eng.name, procs, r, i, sys.X[i], serial.X[i])
					}
				}
			}
		}
	}
}

// engines are the two engines TestMPIMatchesSerial runs the program on.
// The sanitized simulator goes first: an unmatched send, a collective only
// some ranks enter or a deadlock fails the test with the sanitizer's report
// or the wait-for chain, where par.Run would hang until the test timeout.
var engines = []struct {
	name string
	run  func(t *testing.T, procs int, fn func(par.Comm))
}{
	{"vmpi", func(t *testing.T, procs int, fn func(par.Comm)) {
		t.Helper()
		cfg := vmpi.Config{Cluster: machine.NewSingleNode(machine.AltixBX2b), Procs: procs, Sanitize: true}
		if _, err := vmpi.TryRun(cfg, fn); err != nil {
			t.Fatalf("vmpi procs=%d: %v", procs, err)
		}
	}},
	{"par", func(_ *testing.T, procs int, fn func(par.Comm)) { par.Run(procs, fn) }},
}

func TestWeakScalingNearPerfect(t *testing.T) {
	// Table 5 shape: wall clock per step almost flat from 8 to 512 procs.
	w := PaperWeakScaling()
	time := func(p int) float64 {
		cl := machine.NewBX2bQuad()
		res := vmpi.Run(vmpi.Config{Cluster: cl, Procs: p, Nodes: minInt(4, (p+509)/510)},
			w.Skeleton(p))
		return res.Time / SkeletonSteps
	}
	t8 := time(8)
	// The paper runs 510 processors per box (504/1020/2040), staying off
	// the boot cpuset.
	t500 := time(500)
	t2040 := time(2040)
	if t500 > 1.1*t8 {
		t.Errorf("weak scaling degraded: %.4g s/step at 8 procs vs %.4g at 500", t8, t500)
	}
	if t2040 > 1.15*t8 {
		t.Errorf("weak scaling degraded at 2040 procs: %.4g vs %.4g", t2040, t8)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
