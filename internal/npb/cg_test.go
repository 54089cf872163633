package npb

import (
	"math"
	"testing"
	"testing/quick"

	"columbia/internal/machine"
	"columbia/internal/omp"
	"columbia/internal/par"
	"columbia/internal/vmpi"
)

func TestMakeCGMatrixSymmetric(t *testing.T) {
	p := CGParams{N: 200, Nonzer: 5, Niter: 5, Shift: 10}
	m := MakeCGMatrix(p)
	// Collect into a map and check a_ij == a_ji.
	vals := map[[2]int]float64{}
	for i := 0; i < m.N; i++ {
		for k := m.RowStart[i]; k < m.RowStart[i+1]; k++ {
			vals[[2]int{i, m.Col[k]}] = m.Val[k]
		}
	}
	for ij, v := range vals {
		w, ok := vals[[2]int{ij[1], ij[0]}]
		if !ok || math.Abs(v-w) > 1e-12*math.Abs(v) {
			t.Fatalf("asymmetry at %v: %g vs %g (present=%v)", ij, v, w, ok)
		}
	}
	if m.NNZ() < p.N { // at least the diagonal
		t.Errorf("suspiciously sparse: %d nonzeros", m.NNZ())
	}
}

func TestMakeCGMatrixDeterministic(t *testing.T) {
	p := CGClasses[ClassS]
	a := MakeCGMatrix(p)
	b := MakeCGMatrix(p)
	if a.NNZ() != b.NNZ() {
		t.Fatalf("nnz differs: %d vs %d", a.NNZ(), b.NNZ())
	}
	for i := range a.Val {
		if a.Val[i] != b.Val[i] || a.Col[i] != b.Col[i] {
			t.Fatal("matrix generation not deterministic")
		}
	}
}

// cgGoldenZetaS is the class-S zeta of THIS implementation, recorded to
// pin down regressions (see the package comment on verification).
var cgGoldenZetaS float64

func TestCGSerialStable(t *testing.T) {
	p := CGClasses[ClassS]
	r1 := RunCGSerial(p)
	if math.IsNaN(r1.Zeta) || math.IsInf(r1.Zeta, 0) {
		t.Fatalf("zeta = %v", r1.Zeta)
	}
	// The power-method outer iteration must have converged: rerunning with
	// one extra outer iteration moves zeta by very little.
	p2 := p
	p2.Niter = p.Niter + 1
	r2 := RunCGSerial(p2)
	if math.Abs(r1.Zeta-r2.Zeta) > 1e-6*math.Abs(r1.Zeta) {
		t.Errorf("zeta not converged: %v vs %v", r1.Zeta, r2.Zeta)
	}
	cgGoldenZetaS = r1.Zeta
	// zeta must sit below the shift (the estimated eigenvalue offset is
	// negative for the NPB construction) and within a sane band.
	if r1.Zeta >= p.Shift || r1.Zeta < 0 {
		t.Errorf("zeta = %v out of band (shift %v)", r1.Zeta, p.Shift)
	}
}

func TestCGOpenMPMatchesSerial(t *testing.T) {
	p := CGParams{N: 700, Nonzer: 6, Niter: 8, Shift: 9}
	serial := RunCGSerial(p)
	parallel := RunCGOpenMP(p, omp.NewTeam(4))
	if math.Abs(serial.Zeta-parallel.Zeta) > 1e-8*math.Abs(serial.Zeta) {
		t.Errorf("OpenMP zeta %v != serial %v", parallel.Zeta, serial.Zeta)
	}
}

// engines are the two engines the MPI kernel tests run each program on.
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

func TestCGMPIMatchesSerial(t *testing.T) {
	p := CGParams{N: 701, Nonzer: 6, Niter: 6, Shift: 9} // deliberately not divisible
	serial := RunCGSerial(p)
	for _, eng := range engines {
		for _, procs := range []int{2, 3, 5} {
			zetas := make([]float64, procs)
			eng.run(t, procs, func(c par.Comm) {
				zetas[c.Rank()] = RunCGMPI(c, p).Zeta
			})
			for r, z := range zetas {
				if math.Abs(z-serial.Zeta) > 1e-8*math.Abs(serial.Zeta) {
					t.Errorf("%s procs=%d rank %d zeta %v != serial %v", eng.name, procs, r, z, serial.Zeta)
				}
			}
		}
	}
}

func TestCGInnerReducesResidual(t *testing.T) {
	// Property: on a genuinely positive-definite system (no shift), the
	// 25-iteration inner CG drives the residual far below the RHS norm.
	f := func(seed uint8) bool {
		p := CGParams{N: 300 + int(seed), Nonzer: 4, Niter: 1, Shift: -1} // shift -1 => diag += 1.1
		a := MakeCGMatrix(p)
		x := ones(a.N)
		z := make([]float64, a.N)
		r := make([]float64, a.N)
		pv := make([]float64, a.N)
		q := make([]float64, a.N)
		rnorm := cgSolveTeam(a, x, z, r, pv, q, omp.NewTeam(1))
		return rnorm < 1e-6*math.Sqrt(float64(a.N))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}
