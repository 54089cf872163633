package npbmz

import (
	"fmt"

	"columbia/internal/machine"
	"columbia/internal/npb"
	"columbia/internal/omp"
	"columbia/internal/par"
)

// Hybrid performance skeletons for BT-MZ and SP-MZ: per-rank compute set by
// the bin-packed zone loads (so load imbalance produces real waiting in the
// virtual-time engine) and the zone-boundary exchange executed as messages
// between the owning ranks. Thread-level behaviour (Amdahl fraction, region
// overheads, parallelism caps) comes from the omp model via the engine's
// hybrid configuration.

// solverCost is one solver's per-point cost.
type solverCost struct {
	flops, mem, ws float64
	serialFraction float64
}

// Per-point solver costs. BT-MZ runs the block-tridiagonal solver; SP-MZ's
// scalar-pentadiagonal solver is lighter per point. [calibrated]
var solverCosts = map[string]solverCost{
	"BT-MZ": {2500, 7000, 110, 0.22},
	"SP-MZ": {1600, 4200, 70, 0.15},
}

// SkeletonIters is the number of simulated steps (steady state).
const SkeletonIters = 3

// Info describes a configured multi-zone run.
type Info struct {
	Bench        string
	Class        npb.Class
	Params       Params
	Zones        []Zone
	Assign       []int
	Loads        []float64
	FlopsPerStep float64 // whole job
	Iters        int
	// MaxRegions is the largest per-rank fork-join region count per step
	// (4 regions per owned zone).
	MaxRegions int
}

// Imbalance returns maxLoad/avgLoad for the configured distribution.
func (in *Info) Imbalance() float64 { return Imbalance(in.Loads) }

// OMPOpts returns the thread-model options for this benchmark: the
// parallelism cap is the z-extent (per-zone loops cannot spread one zone
// across more threads than it has planes), and the Amdahl fraction is the
// solver's — together these bound the intra-zone OpenMP scaling that
// Fig. 9 shows collapsing beyond a few threads.
func (in *Info) OMPOpts() omp.ModelOpts {
	c := solverCosts[in.Bench]
	return omp.ModelOpts{
		SharedFraction:   0.35,
		SerialFraction:   c.serialFraction,
		MaxUseful:        in.Params.Gz,
		Regions:          in.MaxRegions,
		SharedWorkingSet: true,
	}
}

// resolve returns the parameters of class and the solver cost of bench,
// panicking on an unknown one.
func resolve(bench string, class npb.Class) (Params, solverCost) {
	p, ok := Classes[class]
	if !ok {
		panic(fmt.Sprintf("npbmz: no class %c", class))
	}
	cost, ok := solverCosts[bench]
	if !ok {
		panic(fmt.Sprintf("npbmz: unknown benchmark %q", bench))
	}
	return p, cost
}

// FlopsPerStep returns the whole job's flops per step of bench in class:
// each zone's points times the solver's per-point flops, summed in zone
// order. It needs no process count, so callers that want only the job's
// flop rate skip the balancing and face lists a Skeleton builds.
func FlopsPerStep(bench string, class npb.Class) float64 {
	p, cost := resolve(bench, class)
	var f float64
	for _, z := range Decompose(p, bench == "BT-MZ") {
		f += z.Points() * cost.flops
	}
	return f
}

// Skeleton returns the rank program for a hybrid run with `procs` MPI
// processes (thread count is configured on the engine) plus run info.
func Skeleton(bench string, class npb.Class, procs int) (func(par.Comm), *Info) {
	p, cost := resolve(bench, class)
	zones := Decompose(p, bench == "BT-MZ")
	assign, loads := Balance(zones, procs)
	info := &Info{
		Bench: bench, Class: class, Params: p,
		Zones: zones, Assign: assign, Loads: loads,
		Iters:        p.Niter,
		FlopsPerStep: FlopsPerStep(bench, class),
	}
	// Precompute per-rank work and cross-rank faces.
	work := make([]machine.Work, procs)
	regions := make([]int, procs)
	for _, z := range zones {
		r := assign[z.ID]
		work[r] = work[r].Plus(machine.Work{
			Flops:      z.Points() * cost.flops,
			MemBytes:   z.Points() * cost.mem,
			Efficiency: 0.25,
		})
		work[r].WorkingSet += z.Points() * cost.ws
		regions[r] += 4 // RHS + three sweeps per zone per step
	}
	for _, rg := range regions {
		if rg > info.MaxRegions {
			info.MaxRegions = rg
		}
	}
	type face struct {
		peer  int // remote rank
		tag   int
		bytes float64
	}
	sends := make([][]face, procs)
	recvs := make([][]face, procs)
	for _, z := range zones {
		r := assign[z.ID]
		for side, nb := range Neighbors(p, z.ID) {
			if nb < 0 || assign[nb] == r {
				continue
			}
			t := z.ID*8 + side
			sends[r] = append(sends[r], face{assign[nb], t, FaceBytes(zones[z.ID], side)})
			tr := nb*8 + oppositeSide[side]
			recvs[r] = append(recvs[r], face{assign[nb], tr, FaceBytes(zones[nb], oppositeSide[side])})
		}
	}
	fn := func(c par.Comm) {
		r := c.Rank()
		for it := 0; it < SkeletonIters; it++ {
			for _, f := range sends[r] {
				c.SendBytes(f.peer, f.tag, f.bytes)
			}
			for _, f := range recvs[r] {
				c.RecvBytes(f.peer, f.tag)
			}
			c.Compute(work[r])
		}
	}
	return fn, info
}
