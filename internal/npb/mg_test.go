package npb

import (
	"math"
	"testing"
	"testing/quick"

	"columbia/internal/omp"
	"columbia/internal/par"
)

func TestMGReducesResidual(t *testing.T) {
	p := MGParams{N: 32, Niter: 4}
	res := RunMGSerial(p)
	if !(res.RNorm < res.RNorm0/10) {
		t.Errorf("V-cycles did not reduce residual: %.3g -> %.3g", res.RNorm0, res.RNorm)
	}
	if math.IsNaN(res.RNorm) {
		t.Fatal("NaN residual")
	}
}

func TestMGOpenMPMatchesSerial(t *testing.T) {
	p := MGParams{N: 16, Niter: 3}
	serial := RunMGSerial(p)
	for _, threads := range []int{2, 4, 7} {
		got := RunMGOpenMP(p, omp.NewTeam(threads))
		if math.Abs(got.RNorm-serial.RNorm) > 1e-13+1e-10*serial.RNorm {
			t.Errorf("threads=%d rnorm %v != serial %v", threads, got.RNorm, serial.RNorm)
		}
	}
}

func TestMGMPIMatchesSerial(t *testing.T) {
	p := MGParams{N: 16, Niter: 3}
	serial := RunMGSerial(p)
	for _, eng := range engines {
		for _, procs := range []int{2, 4, 8} {
			norms := make([]float64, procs)
			eng.run(t, procs, func(c par.Comm) {
				norms[c.Rank()] = RunMGMPI(c, p).RNorm
			})
			for r, nm := range norms {
				if math.Abs(nm-serial.RNorm) > 1e-13+1e-10*serial.RNorm {
					t.Errorf("%s procs=%d rank=%d rnorm %v != serial %v", eng.name, procs, r, nm, serial.RNorm)
				}
			}
		}
	}
}

func TestMGOperatorsConserve(t *testing.T) {
	// Property: full-weighting restriction preserves the mean value, and
	// trilinear interpolation of a constant is that constant.
	f := func(seed uint8) bool {
		const nc = 8
		nf := 2 * nc
		fine := make([]float64, nf*nf*nf)
		sum := 0.0
		for i := range fine {
			fine[i] = math.Sin(float64(seed+1) * float64(i))
			sum += fine[i]
		}
		coarse := make([]float64, nc*nc*nc)
		restrict26(coarse, fine, nc, 0, nc)
		csum := 0.0
		for _, x := range coarse {
			csum += x
		}
		// Means agree: restriction weights sum to 1 per coarse point and
		// each fine point contributes total weight 1/8.
		if math.Abs(csum/float64(len(coarse))-sum/float64(len(fine))) > 1e-12 {
			return false
		}
		// Interpolating a constant adds exactly that constant.
		for i := range coarse {
			coarse[i] = 2.5
		}
		out := make([]float64, nf*nf*nf)
		interp26(out, coarse, nc, 0, nf)
		for _, x := range out {
			if math.Abs(x-2.5) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestMGStencilNullsConstants(t *testing.T) {
	// The A stencil annihilates constant fields (weights sum to zero), a
	// discrete-Laplacian property NPB's coefficients satisfy.
	sum := mgA[0] + 6*mgA[1] + 12*mgA[2] + 8*mgA[3]
	if math.Abs(sum) > 1e-12 {
		t.Errorf("A weights sum to %v, want 0", sum)
	}
	const n = 8
	src := make([]float64, n*n*n)
	for i := range src {
		src[i] = 7.25
	}
	dst := make([]float64, n*n*n)
	apply27(dst, src, nil, n, mgA, 0, n)
	for _, x := range dst {
		if math.Abs(x) > 1e-11 {
			t.Fatalf("A(constant) = %v, want 0", x)
		}
	}
}
