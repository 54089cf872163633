package npb

import (
	"math"
	"testing"
	"testing/quick"

	"columbia/internal/omp"
	"columbia/internal/par"
)

func TestMat5InvProperty(t *testing.T) {
	// Property: inv(A)·A = I for random diagonally dominant blocks.
	f := func(vals [25]int8) bool {
		var a mat5
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				a[i][j] = float64(vals[i*5+j]) / 64
			}
			a[i][i] += 4 // dominance
		}
		prod := a.inv().mul(a)
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod[i][j]-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSolveBlockTriSolves(t *testing.T) {
	// Property: the block-Thomas solution satisfies the original system.
	f := func(seed uint8) bool {
		n := 9
		line := make([]vec5, n)
		diag := make([]float64, n)
		orig := make([]vec5, n)
		for m := 0; m < n; m++ {
			diag[m] = math.Sin(float64(seed) + float64(m))
			for c := 0; c < btComp; c++ {
				line[m][c] = math.Cos(float64(seed)*float64(c+1) + float64(m))
				orig[m][c] = line[m][c]
			}
		}
		solveBlockTri(line, diag)
		// Verify A·x = b row by row.
		for m := 0; m < n; m++ {
			b := btDiagBlock(diag[m]).mulVec(line[m])
			if m > 0 {
				lo := btOffBlock.mulVec(line[m-1])
				for c := range b {
					b[c] += lo[c]
				}
			}
			if m < n-1 {
				hi := btOffBlock.mulVec(line[m+1])
				for c := range b {
					b[c] += hi[c]
				}
			}
			for c := range b {
				if math.Abs(b[c]-orig[m][c]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestBTDecays(t *testing.T) {
	p := BTParams{N: 12, Niter: 10}
	res := RunBTSerial(p)
	if !(res.Norm < res.Norm0) {
		t.Errorf("implicit diffusion did not decay: %.4g -> %.4g", res.Norm0, res.Norm)
	}
	if math.IsNaN(res.Norm) || res.Norm < 0 {
		t.Fatalf("bad norm %v", res.Norm)
	}
}

func TestBTOpenMPMatchesSerial(t *testing.T) {
	p := BTParams{N: 12, Niter: 4}
	serial := RunBTSerial(p)
	for _, threads := range []int{2, 5} {
		got := RunBTOpenMP(p, omp.NewTeam(threads))
		if math.Abs(got.Norm-serial.Norm) > 1e-12+1e-10*serial.Norm {
			t.Errorf("threads=%d norm %v != serial %v", threads, got.Norm, serial.Norm)
		}
	}
}

func TestBTMPIMatchesSerial(t *testing.T) {
	p := BTParams{N: 12, Niter: 4}
	serial := RunBTSerial(p)
	for _, eng := range engines {
		for _, procs := range []int{2, 3, 4} {
			norms := make([]float64, procs)
			eng.run(t, procs, func(c par.Comm) {
				norms[c.Rank()] = RunBTMPI(c, p).Norm
			})
			for r, nm := range norms {
				if math.Abs(nm-serial.Norm) > 1e-10+1e-9*serial.Norm {
					t.Errorf("%s procs=%d rank=%d norm %.15g != serial %.15g", eng.name, procs, r, nm, serial.Norm)
				}
			}
		}
	}
}
