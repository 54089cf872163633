package hpcc

import (
	"math"
	"testing"
	"testing/quick"

	"columbia/internal/machine"
	"columbia/internal/omp"
	"columbia/internal/par"
	"columbia/internal/vmpi"
)

func TestDgemmCorrect(t *testing.T) {
	const n = 65
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) - 3
		b[i] = float64(i%5) - 2
	}
	flops := Dgemm(omp.NewTeam(4), a, b, c, n)
	if flops != 2*float64(n)*float64(n)*float64(n) {
		t.Errorf("flop count %v", flops)
	}
	// Spot-check a few entries against the naive definition.
	for _, ij := range [][2]int{{0, 0}, {3, 17}, {n - 1, n - 1}, {31, 2}} {
		i, j := ij[0], ij[1]
		want := 0.0
		for k := 0; k < n; k++ {
			want += a[i*n+k] * b[k*n+j]
		}
		if math.Abs(c[i*n+j]-want) > 1e-9*math.Abs(want)+1e-12 {
			t.Errorf("c[%d,%d] = %g, want %g", i, j, c[i*n+j], want)
		}
	}
}

func TestDgemmTeamInvariance(t *testing.T) {
	// Property: the result is independent of the team size.
	f := func(seed uint8) bool {
		const n = 33
		a := make([]float64, n*n)
		b := make([]float64, n*n)
		s := float64(seed) + 1
		for i := range a {
			a[i] = math.Sin(s * float64(i))
			b[i] = math.Cos(s * float64(i))
		}
		c1 := make([]float64, n*n)
		c8 := make([]float64, n*n)
		Dgemm(omp.NewTeam(1), a, b, c1, n)
		Dgemm(omp.NewTeam(8), a, b, c8, n)
		for i := range c1 {
			if c1[i] != c8[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestDgemmModelPaperRates(t *testing.T) {
	// §4.1.1: ~5.75 Gflop/s on BX2b, ~6% less on 3700/BX2a; stride must
	// move the result by well under 1%.
	bx2b := machine.Dense(machine.NewSingleNode(machine.AltixBX2b), 4)
	r3700 := machine.Dense(machine.NewSingleNode(machine.Altix3700), 4)
	gb := DgemmModel(bx2b) / 1e9
	g3 := DgemmModel(r3700) / 1e9
	if gb < 5.5 || gb > 6.0 {
		t.Errorf("BX2b DGEMM = %.3f Gflop/s, want ~5.75", gb)
	}
	ratio := gb / g3
	if ratio < 1.04 || ratio > 1.08 {
		t.Errorf("BX2b/3700 DGEMM ratio = %.3f, want ~1.06", ratio)
	}
	strided := machine.Strided(machine.NewSingleNode(machine.AltixBX2b), 4, 2)
	if d := math.Abs(DgemmModel(strided)/DgemmModel(bx2b) - 1); d > 0.005 {
		t.Errorf("stride changed DGEMM by %.2f%%, want <0.5%%", 100*d)
	}
}

func TestStreamModelStrideEffect(t *testing.T) {
	cl := machine.NewSingleNode(machine.Altix3700)
	dense := StreamModel(machine.Dense(cl, 8))
	spread := StreamModel(machine.Strided(cl, 8, 2))
	// §4.2: spread-out Triad is ~1.9x the dense rate; dense ~2 GB/s,
	// single-CPU ~3.8 GB/s.
	ratio := spread.Triad / dense.Triad
	if ratio < 1.7 || ratio > 2.0 {
		t.Errorf("stride-2 Triad ratio = %.2f, want ~1.9", ratio)
	}
	if dense.Triad < 1.8e9 || dense.Triad > 2.2e9 {
		t.Errorf("dense Triad = %.3g, want ~2 GB/s", dense.Triad)
	}
	single := StreamModel(machine.Dense(cl, 1))
	if single.Triad < 3.6e9 || single.Triad > 4.0e9 {
		t.Errorf("single-CPU Triad = %.3g, want ~3.8 GB/s", single.Triad)
	}
	// 3700 beats BX2 by ~1%.
	bx := StreamModel(machine.Dense(machine.NewSingleNode(machine.AltixBX2a), 8))
	if r := dense.Triad / bx.Triad; r < 1.0 || r > 1.03 {
		t.Errorf("3700/BX2 Triad ratio = %.3f, want ~1.01", r)
	}
}

func TestStreamKernelsReal(t *testing.T) {
	n := 1 << 16
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
	}
	var fake float64
	res := StreamKernels(omp.NewTeam(2), a, b, c, 2, func() float64 { fake += 1e-3; return fake })
	if res.Copy <= 0 || res.Triad <= 0 {
		t.Errorf("non-positive bandwidths: %+v", res)
	}
	// Semantics of the final kernel: a = b + 3c.
	for i := 0; i < n; i += n / 7 {
		if a[i] != b[i]+3*c[i] {
			t.Fatalf("triad result wrong at %d", i)
		}
	}
}

func TestBeffShapes(t *testing.T) {
	run := func(nt machine.NodeType, p int) BeffResult {
		cl := machine.NewSingleNode(nt)
		var out BeffResult
		_, err := vmpi.TryRun(vmpi.Config{Cluster: cl, Procs: p, Sanitize: true}, func(c par.Comm) {
			r := Beff(c, 4)
			if c.Rank() == 0 {
				out = r
			}
		})
		if err != nil {
			t.Fatalf("%v p=%d: %v", nt, p, err)
		}
		return out
	}
	b64 := run(machine.AltixBX2b, 64)
	n64 := run(machine.Altix3700, 64)
	// Latencies are microseconds, not milliseconds or nanoseconds.
	if b64.PingPong.Latency < 0.5e-6 || b64.PingPong.Latency > 10e-6 {
		t.Errorf("BX2b ping-pong latency %.3g s", b64.PingPong.Latency)
	}
	// Random ring latency grows with CPU count and is worse on the 3700
	// (more racks spanned, slower hops).
	b256 := run(machine.AltixBX2b, 256)
	if b256.Random.Latency <= b64.Random.Latency {
		t.Errorf("random ring latency should grow with CPUs: %.3g !> %.3g",
			b256.Random.Latency, b64.Random.Latency)
	}
	n256 := run(machine.Altix3700, 256)
	if n256.Random.Latency <= b256.Random.Latency {
		t.Errorf("3700 random ring latency (%.3g) should exceed BX2b (%.3g)",
			n256.Random.Latency, b256.Random.Latency)
	}
	// Natural-ring bandwidth tracks processor speed: BX2b >= 3700.
	if b64.Natural.Bandwidth <= n64.Natural.Bandwidth {
		t.Errorf("natural ring bandwidth: BX2b %.3g <= 3700 %.3g",
			b64.Natural.Bandwidth, n64.Natural.Bandwidth)
	}
}

func TestBeffMultinode(t *testing.T) {
	run := func(cl *machine.Cluster, p, nodes int, random bool) BeffResult {
		var out BeffResult
		_, err := vmpi.TryRun(vmpi.Config{Cluster: cl, Procs: p, Nodes: nodes, RandomPattern: random, Sanitize: true}, func(c par.Comm) {
			r := Beff(c, 2)
			if c.Rank() == 0 {
				out = r
			}
		})
		if err != nil {
			t.Fatalf("%v p=%d nodes=%d random=%v: %v", cl.Fabric, p, nodes, random, err)
		}
		return out
	}
	nl := run(machine.NewBX2bQuad(), 128, 4, false)
	ib := run(machine.NewBX2bQuadIB(), 128, 4, false)
	if ib.PingPong.Latency <= nl.PingPong.Latency {
		t.Errorf("IB ping-pong latency (%.3g) should exceed NUMAlink4 (%.3g)",
			ib.PingPong.Latency, nl.PingPong.Latency)
	}
	// Fig. 10: severe InfiniBand random-ring bandwidth problems.
	nlr := run(machine.NewBX2bQuad(), 128, 4, true)
	ibr := run(machine.NewBX2bQuadIB(), 128, 4, true)
	if ibr.Random.Bandwidth*3 > nlr.Random.Bandwidth {
		t.Errorf("IB random ring bandwidth (%.3g) should collapse vs NUMAlink4 (%.3g)",
			ibr.Random.Bandwidth, nlr.Random.Bandwidth)
	}
	// IB ping-pong latency worsens from two to four nodes.
	ib2 := run(machine.NewBX2bQuadIB(), 128, 2, false)
	if ib.PingPong.Latency <= ib2.PingPong.Latency {
		t.Errorf("IB 4-node ping-pong latency (%.3g) should exceed 2-node (%.3g)",
			ib.PingPong.Latency, ib2.PingPong.Latency)
	}
}

func TestPingPairsProperty(t *testing.T) {
	f := func(n uint16) bool {
		p := int(n%2048) + 2
		pairs := pingPairs(p)
		for _, pr := range pairs {
			if pr[0] < 0 || pr[0] >= p || pr[1] < 0 || pr[1] >= p || pr[0] == pr[1] {
				return false
			}
		}
		return len(pairs) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
