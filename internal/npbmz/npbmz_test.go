package npbmz

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"columbia/internal/machine"
	"columbia/internal/npb"
	"columbia/internal/omp"
	"columbia/internal/par"
	"columbia/internal/vmpi"
)

func TestDecomposeCoversGrid(t *testing.T) {
	for class, p := range Classes {
		for _, uneven := range []bool{false, true} {
			zones := Decompose(p, uneven)
			if len(zones) != p.Zones() {
				t.Fatalf("class %c: %d zones, want %d", class, len(zones), p.Zones())
			}
			// Sum of zone volumes equals the aggregate volume (x and y
			// widths partition Gx and Gy exactly).
			total := 0.0
			for _, z := range zones {
				total += z.Points()
			}
			want := float64(p.Gx) * float64(p.Gy) * float64(p.Gz)
			if math.Abs(total-want) > 1e-6*want {
				t.Errorf("class %c uneven=%v: %.0f points, want %.0f", class, uneven, total, want)
			}
		}
	}
}

func TestBTMZUnevenRatio(t *testing.T) {
	p := Classes[npb.ClassC]
	zones := Decompose(p, true)
	min, max := zones[0].Points(), zones[0].Points()
	for _, z := range zones {
		if z.Points() < min {
			min = z.Points()
		}
		if z.Points() > max {
			max = z.Points()
		}
	}
	ratio := max / min
	if ratio < 10 || ratio > 40 {
		t.Errorf("BT-MZ zone size ratio = %.1f, want ~20", ratio)
	}
	// SP-MZ zones are even (within rounding).
	sp := Decompose(p, false)
	min, max = sp[0].Points(), sp[0].Points()
	for _, z := range sp {
		if z.Points() < min {
			min = z.Points()
		}
		if z.Points() > max {
			max = z.Points()
		}
	}
	if max/min > 1.2 {
		t.Errorf("SP-MZ zones uneven: ratio %.2f", max/min)
	}
}

func TestBalanceProperties(t *testing.T) {
	f := func(seed uint8, pc uint8) bool {
		p := Classes[npb.ClassB]
		zones := Decompose(p, seed%2 == 0)
		procs := 1 + int(pc)%64
		assign, loads := Balance(zones, procs)
		sum := 0.0
		for _, l := range loads {
			sum += l
		}
		totalWant := 0.0
		for _, z := range zones {
			if assign[z.ID] < 0 || assign[z.ID] >= procs {
				return false
			}
			totalWant += z.Points()
		}
		if math.Abs(sum-totalWant) > 1e-6*totalWant {
			return false
		}
		return Imbalance(loads) >= 1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// balanceScan is the reference balancer Balance's heap replaces: the same
// size order, with an O(procs) scan for the first least-loaded proc.
func balanceScan(zones []Zone, procs int) (assign []int, loads []float64) {
	order := make([]int, len(zones))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := zones[order[a]].Points(), zones[order[b]].Points()
		if pa != pb {
			return pa > pb
		}
		return order[a] < order[b]
	})
	assign = make([]int, len(zones))
	loads = make([]float64, procs)
	for _, z := range order {
		best := 0
		for k := 1; k < procs; k++ {
			if loads[k] < loads[best] {
				best = k
			}
		}
		assign[z] = best
		loads[best] += zones[z].Points()
	}
	return assign, loads
}

// TestBalanceMatchesScan: the heap balancer makes the scan's every pick,
// ties included, so assignments and loads are identical bit for bit. Small
// zone extents make equal zone sizes and equal loads common.
func TestBalanceMatchesScan(t *testing.T) {
	check := func(name string, zones []Zone, procs int) {
		t.Helper()
		gotA, gotL := Balance(zones, procs)
		wantA, wantL := balanceScan(zones, procs)
		for z := range wantA {
			if gotA[z] != wantA[z] {
				t.Fatalf("%s, %d procs: zone %d on proc %d, scan puts it on %d", name, procs, z, gotA[z], wantA[z])
			}
		}
		for p := range wantL {
			if gotL[p] != wantL[p] {
				t.Fatalf("%s, %d procs: proc %d load %v, scan %v", name, procs, p, gotL[p], wantL[p])
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		zones := make([]Zone, 1+rng.Intn(600))
		for id := range zones {
			zones[id] = Zone{ID: id, Nx: 1 + rng.Intn(6), Ny: 1 + rng.Intn(6), Nz: 1 + rng.Intn(3)}
		}
		check("random", zones, 1+rng.Intn(2048))
	}
	for _, class := range []npb.Class{npb.ClassB, npb.ClassC, npb.ClassE} {
		for _, uneven := range []bool{false, true} {
			zones := Decompose(Classes[class], uneven)
			for _, procs := range []int{1, 2, 3, 16, 63, 64, 256, 512, 2048} {
				check(string(class), zones, procs)
			}
		}
	}
}

func TestThreadsRecoverBalance(t *testing.T) {
	// The paper's point about BT-MZ: when procs approach the zone count,
	// pure-process imbalance grows, and hybrid runs with the same total
	// CPUs but fewer processes balance better (Fig. 11 discussion: ~11%
	// gain for 256x2 vs 512x1).
	p := Classes[npb.ClassE]
	zones := Decompose(p, true)
	_, l512 := Balance(zones, 512)
	_, l256 := Balance(zones, 256)
	if Imbalance(l256) >= Imbalance(l512) {
		t.Errorf("imbalance 256 procs (%.3f) should be below 512 procs (%.3f)",
			Imbalance(l256), Imbalance(l512))
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	p := Classes[npb.ClassC]
	for id := 0; id < p.Zones(); id++ {
		for side, nb := range Neighbors(p, id) {
			if nb < 0 {
				continue
			}
			back := Neighbors(p, nb)[oppositeSide[side]]
			if back != id {
				t.Fatalf("zone %d side %d -> %d, but reverse is %d", id, side, nb, back)
			}
		}
	}
}

func TestMiniMPIMatchesSerial(t *testing.T) {
	p := Params{XZones: 3, YZones: 2, Niter: 3}
	serial := RunMiniSerial(p, 8, 3, 1)
	for _, eng := range engines {
		for _, procs := range []int{2, 3} {
			var got []float64
			eng.run(t, procs, func(c par.Comm) {
				norms := RunMiniMPI(c, p, 8, 3, 1)
				if c.Rank() == 0 {
					got = norms
				}
			})
			for i := range serial {
				if math.Abs(serial[i]-got[i]) > 1e-12+1e-10*serial[i] {
					t.Errorf("%s procs=%d zone %d norm %.15g != serial %.15g", eng.name, procs, i, got[i], serial[i])
				}
			}
		}
	}
}

// engines are the two engines TestMiniMPIMatchesSerial runs the program on.
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

func TestMiniCouplingChangesResult(t *testing.T) {
	// Coupled zones must differ from independent zones: the exchange is
	// doing something.
	p := Params{XZones: 2, YZones: 1, Niter: 2}
	coupled := RunMiniSerial(p, 8, 4, 1)
	z := npb.NewZone(8)
	team := newTeam1()
	for s := 0; s < 4; s++ {
		z.Step(team)
	}
	if math.Abs(coupled[0]-z.Norm()) < 1e-15 {
		t.Error("coupled zone identical to uncoupled zone; exchange is a no-op")
	}
}

func TestSkeletonInfo(t *testing.T) {
	fn, info := Skeleton("BT-MZ", npb.ClassC, 64)
	if fn == nil || info.FlopsPerStep <= 0 {
		t.Fatal("bad skeleton")
	}
	if info.Imbalance() < 1 {
		t.Errorf("imbalance %v", info.Imbalance())
	}
	if info.MaxRegions < 4 {
		t.Errorf("regions %d", info.MaxRegions)
	}
	// SP-MZ with procs dividing zones balances perfectly.
	_, sp := Skeleton("SP-MZ", npb.ClassC, 64)
	if im := sp.Imbalance(); im > 1.001 {
		t.Errorf("SP-MZ imbalance %v, want ~1 (256 zones over 64 procs)", im)
	}
}

// newTeam1 avoids importing omp in most tests.
func newTeam1() *omp.Team { return omp.NewTeam(1) }
