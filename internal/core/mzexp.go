package core

import (
	"fmt"

	"columbia/internal/machine"
	"columbia/internal/npb"
	"columbia/internal/npbmz"
	"columbia/internal/pinning"
	"columbia/internal/report"
)

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Fig. 7: pinning vs no pinning for hybrid SP-MZ class C (BX2b)",
		Paper: "Pinning improves hybrid runs substantially once processes spawn multiple threads, more so as CPUs grow; pure process mode is less influenced.",
		Run:   runFig7,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Fig. 9: MPI processes vs OpenMP threads for BT-MZ class C (BX2b)",
		Paper: "For fixed threads, MPI scales almost linearly until load imbalance; for fixed processes, OpenMP scaling is limited — beyond two threads per-CPU performance drops quickly.",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Fig. 11: BT-MZ / SP-MZ class E across NUMAlink4, InfiniBand and in-node",
		Paper: "NUMAlink4 comparable to in-node up to 512 CPUs (512-CPU in-node runs lose 10-15% to the boot cpuset); close-to-linear BT-MZ speedup; IB only ~7% worse for BT-MZ; SP-MZ IB anomaly with mpt1.11r (40% at 256 CPUs) fixed by the mpt1.11b beta.",
		Run:   runFig11,
	})
}

// mzTimeAsync submits a hybrid multi-zone run as a sweep point and returns
// the per-step virtual-time future.
func mzTimeAsync(bench string, class npb.Class, cl ClusterRef, procs, threads, nodes int,
	pin pinning.Method, mpt machine.MPTVersion) Ens[float64] {
	return submitPoint[float64](PointSpec{
		Kind: "mz", Cluster: cl, Procs: procs, Threads: threads, Nodes: nodes,
		Bench: bench, Class: class, Pin: pin, MPT: mpt,
	})
}

// mzTime is the synchronous form used by shape tests.
func mzTime(bench string, class npb.Class, cl ClusterRef, procs, threads, nodes int,
	pin pinning.Method, mpt machine.MPTVersion) float64 {
	return mzTimeAsync(bench, class, cl, procs, threads, nodes, pin, mpt).Wait()
}

// mzGflops converts a per-step time into whole-job Gflop/s.
func mzGflops(bench string, class npb.Class, perStep float64) float64 {
	return npbmz.FlopsPerStep(bench, class) / perStep / 1e9
}

func runFig7() []*report.Table {
	cl := singleNode(machine.AltixBX2b)
	type point struct {
		label            string
		pinned, unpinned Ens[float64]
	}
	cpuCounts := []int{64, 128, 256}
	points := make([][]point, len(cpuCounts))
	for i, cpus := range cpuCounts {
		for th := 1; th <= 64 && cpus/th >= 1; th *= 2 {
			procs := cpus / th
			if procs > npbmz.Classes[npb.ClassC].Zones() {
				continue
			}
			points[i] = append(points[i], point{
				label:    fmt.Sprintf("%dx%d", procs, th),
				pinned:   mzTimeAsync("SP-MZ", npb.ClassC, cl, procs, th, 1, pinning.Dplace, machine.MPT111b),
				unpinned: mzTimeAsync("SP-MZ", npb.ClassC, cl, procs, th, 1, pinning.None, machine.MPT111b),
			})
		}
	}
	var tables []*report.Table
	for i, cpus := range cpuCounts {
		t := report.New(fmt.Sprintf("Fig. 7: SP-MZ class C on %d CPUs, time/step (s)", cpus),
			"Threads/proc", "pinned", "no pinning", "slowdown")
		for _, pt := range points[i] {
			pc := waitCell(t, pt.pinned, numCell)
			uc := waitCell(t, pt.unpinned, numCell)
			t.AddF(pt.label, pc, uc, ratioCell(pt.unpinned, pt.pinned))
		}
		t.Note("Paper: pinning matters most with many threads per process and high CPU counts; pure process mode (x1) is least affected.")
		tables = append(tables, t)
	}
	return tables
}

func runFig9() []*report.Table {
	cl := singleNode(machine.AltixBX2b)
	point := func(procs, th int) Ens[float64] {
		if procs*th > 512 {
			return Ens[float64]{}
		}
		return mzTimeAsync("BT-MZ", npb.ClassC, cl, procs, th, 1, pinning.Dplace, machine.MPT111b)
	}
	leftProcs := []int{1, 4, 16, 64, 256}
	leftThreads := []int{1, 2, 4}
	rightThreads := []int{1, 2, 4, 8, 16, 32}
	rightProcs := []int{16, 64, 256}
	leftPts := make([][]Ens[float64], len(leftProcs))
	for i, procs := range leftProcs {
		for _, th := range leftThreads {
			leftPts[i] = append(leftPts[i], point(procs, th))
		}
	}
	rightPts := make([][]Ens[float64], len(rightThreads))
	for i, th := range rightThreads {
		for _, procs := range rightProcs {
			rightPts[i] = append(rightPts[i], point(procs, th))
		}
	}
	cellFor := func(t *report.Table, f Ens[float64]) interface{} {
		if !f.Valid() {
			return "-"
		}
		return waitCell(t, f, func(perStep float64) any {
			return mzGflops("BT-MZ", npb.ClassC, perStep)
		})
	}
	left := report.New("Fig. 9 (left): BT-MZ class C total Gflop/s, fixed threads, varying processes",
		"CPUs", "1 thread", "2 threads", "4 threads")
	for i, procs := range leftProcs {
		row := []interface{}{procs}
		for _, f := range leftPts[i] {
			row = append(row, cellFor(left, f))
		}
		left.AddF(row...)
	}
	left.Note("Paper: MPI scales almost linearly up to the load-imbalance point.")
	right := report.New("Fig. 9 (right): BT-MZ class C total Gflop/s, fixed processes, varying threads",
		"Threads/proc", "16 procs", "64 procs", "256 procs")
	for i, th := range rightThreads {
		row := []interface{}{th}
		for _, f := range rightPts[i] {
			row = append(row, cellFor(right, f))
		}
		right.AddF(row...)
	}
	right.Note("Paper: except for two threads, OpenMP performance drops quickly as threads increase.")
	return []*report.Table{left, right}
}

func runFig11() []*report.Table {
	benches := []string{"BT-MZ", "SP-MZ"}
	topCfgs := []struct{ p, th int }{{256, 1}, {256, 2}, {508, 1}, {512, 1}}
	bottomCPUs := []int{256, 512, 1024, 2048}
	// Top row points: per-CPU Gflop/s, NUMAlink4 quad vs a single box.
	type topPoint struct {
		single, quad Ens[float64]
	}
	top := map[string][]topPoint{}
	for _, bench := range benches {
		for _, cfg := range topCfgs {
			cpus := cfg.p * cfg.th
			var pt topPoint
			if cpus <= 512 {
				pt.single = mzTimeAsync(bench, npb.ClassE, singleNode(machine.AltixBX2b),
					cfg.p, cfg.th, 1, pinning.Dplace, machine.MPT111b)
			}
			nodes := (cpus + 511) / 512
			if nodes < 2 {
				nodes = 2
			}
			pt.quad = mzTimeAsync(bench, npb.ClassE, quadNL,
				cfg.p, cfg.th, nodes, pinning.Dplace, machine.MPT111b)
			top[bench] = append(top[bench], pt)
		}
	}
	// Bottom row points: total Gflop/s, NUMAlink4 vs InfiniBand (both MPT
	// versions for SP-MZ's anomaly).
	type bottomPoint struct {
		nl, ibr, ibb Ens[float64]
	}
	bottom := map[string][]bottomPoint{}
	for _, bench := range benches {
		for _, cpus := range bottomCPUs {
			nodes := (cpus + 511) / 512
			if nodes < 2 {
				nodes = 2
			}
			th := 1
			procs := cpus
			if cpus >= 2048 {
				// Four boxes over InfiniBand exceed the pure-MPI card
				// limit; hybrid mode (2 threads/process) is required.
				th, procs = 2, cpus/2
			}
			bottom[bench] = append(bottom[bench], bottomPoint{
				nl:  mzTimeAsync(bench, npb.ClassE, quadNL, procs, th, nodes, pinning.Dplace, machine.MPT111b),
				ibr: mzTimeAsync(bench, npb.ClassE, quadIB, procs, th, nodes, pinning.Dplace, machine.MPT111r),
				ibb: mzTimeAsync(bench, npb.ClassE, quadIB, procs, th, nodes, pinning.Dplace, machine.MPT111b),
			})
		}
	}
	var tables []*report.Table
	for _, bench := range benches {
		t := report.New(fmt.Sprintf("Fig. 11 (top): %s class E per-CPU Gflop/s, in-node vs NUMAlink4", bench),
			"CPUs x threads", "single box", "NUMAlink4 quad")
		for i, cfg := range topCfgs {
			cpus := cfg.p * cfg.th
			pt := top[bench][i]
			perCPU := func(perStep float64) any {
				return mzGflops(bench, npb.ClassE, perStep) / float64(cpus)
			}
			single := "-"
			if pt.single.Valid() {
				single = cellText(waitCell(t, pt.single, perCPU))
			}
			t.Add(fmt.Sprintf("%dx%d", cfg.p, cfg.th),
				single, cellText(waitCell(t, pt.quad, perCPU)))
		}
		t.Note("Paper: NUMAlink4 comparable to or better than in-node; 512-CPU in-node runs drop 10-15%% (boot cpuset) — compare the 508x1 and 512x1 rows.")
		tables = append(tables, t)
	}
	for _, bench := range benches {
		t := report.New(fmt.Sprintf("Fig. 11 (bottom): %s class E total Gflop/s by fabric", bench),
			"CPUs", "NUMAlink4", "IB mpt1.11r", "IB mpt1.11b")
		for i, cpus := range bottomCPUs {
			pt := bottom[bench][i]
			total := func(perStep float64) any { return mzGflops(bench, npb.ClassE, perStep) }
			t.AddF(cpus,
				waitCell(t, pt.nl, total),
				waitCell(t, pt.ibr, total),
				waitCell(t, pt.ibb, total))
		}
		if bench == "BT-MZ" {
			t.Note("Paper: close-to-linear BT-MZ speedup; InfiniBand only ~7%% worse.")
		} else {
			t.Note("Paper: released mpt1.11r is 40%% slower over IB at 256 CPUs, recovering at scale; the mpt1.11b beta matches NUMAlink4.")
		}
		tables = append(tables, t)
	}
	return tables
}
