package npb

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"columbia/internal/omp"
	"columbia/internal/par"
)

func TestFFT1InverseIdentity(t *testing.T) {
	f := func(seed uint8, logn uint8) bool {
		n := 1 << (logn%6 + 1) // 2..64
		a := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range a {
			a[i] = complex(math.Sin(float64(seed)+float64(i)), math.Cos(2*float64(i)))
			orig[i] = a[i]
		}
		fft1(a, false)
		fft1(a, true)
		for i := range a {
			if cmplx.Abs(a[i]-orig[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFFT1Parseval(t *testing.T) {
	// Energy conservation: sum |x|² = (1/n)·sum |X|².
	n := 32
	a := make([]complex128, n)
	e0 := 0.0
	for i := range a {
		a[i] = complex(float64(i%5)-2, float64(i%3))
		e0 += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
	}
	fft1(a, false)
	e1 := 0.0
	for i := range a {
		e1 += real(a[i])*real(a[i]) + imag(a[i])*imag(a[i])
	}
	if math.Abs(e1/float64(n)-e0) > 1e-9*e0 {
		t.Errorf("Parseval violated: %v vs %v", e1/float64(n), e0)
	}
}

func TestFFT1KnownTransform(t *testing.T) {
	// The transform of a pure mode is a delta.
	n := 16
	a := make([]complex128, n)
	for i := range a {
		ang := 2 * math.Pi * 3 * float64(i) / float64(n)
		a[i] = cmplx.Exp(complex(0, ang))
	}
	fft1(a, false)
	for k := range a {
		want := 0.0
		if k == 3 {
			want = float64(n)
		}
		if cmplx.Abs(a[k]-complex(want, 0)) > 1e-9 {
			t.Fatalf("bin %d = %v, want %v", k, a[k], want)
		}
	}
}

func TestFTOpenMPMatchesSerial(t *testing.T) {
	p := FTParams{Nx: 16, Ny: 8, Nz: 16, Niter: 3}
	serial := RunFTSerial(p)
	got := RunFTOpenMP(p, omp.NewTeam(4))
	for i := range serial.Checksums {
		if cmplx.Abs(serial.Checksums[i]-got.Checksums[i]) > 1e-10 {
			t.Errorf("iter %d: OpenMP checksum %v != serial %v", i, got.Checksums[i], serial.Checksums[i])
		}
	}
}

func TestFTMPIMatchesSerial(t *testing.T) {
	p := FTParams{Nx: 16, Ny: 8, Nz: 16, Niter: 3}
	serial := RunFTSerial(p)
	for _, eng := range engines {
		for _, procs := range []int{2, 4} {
			sums := make([][]complex128, procs)
			eng.run(t, procs, func(c par.Comm) {
				sums[c.Rank()] = RunFTMPI(c, p).Checksums
			})
			for r := 0; r < procs; r++ {
				for i := range serial.Checksums {
					if cmplx.Abs(serial.Checksums[i]-sums[r][i]) > 1e-9 {
						t.Errorf("%s procs=%d rank=%d iter %d: %v != %v",
							eng.name, procs, r, i, sums[r][i], serial.Checksums[i])
					}
				}
			}
		}
	}
}

func TestFTChecksumsEvolve(t *testing.T) {
	// Successive checksums differ (the field evolves) but stay bounded
	// (the evolution factor is a decay).
	p := FTParams{Nx: 16, Ny: 16, Nz: 16, Niter: 5}
	res := RunFTSerial(p)
	for i := 1; i < len(res.Checksums); i++ {
		if res.Checksums[i] == res.Checksums[i-1] {
			t.Errorf("checksums identical at iter %d", i)
		}
		if cmplx.Abs(res.Checksums[i]) > 10*cmplx.Abs(res.Checksums[0])+1 {
			t.Errorf("checksum diverging: %v", res.Checksums[i])
		}
	}
}
