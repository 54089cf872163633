package columbia

// The benchmark harness: one testing.B benchmark per paper table and
// figure, timing the regeneration of that item on the simulated Columbia
// (and, for the real kernels, the host execution itself). Run with
//
//	go test -bench=. -benchmem
//
// Each table/figure benchmark reports the wall time to reproduce the whole
// item; ablation benchmarks at the bottom time the design alternatives
// called out in DESIGN.md.

import (
	"context"
	"testing"

	"columbia/internal/core"
	"columbia/internal/hpcc"
	"columbia/internal/machine"
	"columbia/internal/md"
	"columbia/internal/noise"
	"columbia/internal/npb"
	"columbia/internal/omp"
	"columbia/internal/overset"
	"columbia/internal/par"
	"columbia/internal/report"
	"columbia/internal/sweep"
	"columbia/internal/vmpi"
)

func benchExperiment(b *testing.B, id string) {
	e, err := core.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Drop the sweep cache so every iteration times real regeneration,
		// not a map lookup.
		sweep.ResetCache()
		tables := e.Run()
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// --- Scheduler benchmarks: the full paper sweep ---

// BenchmarkSweepSerial reproduces every experiment (the work of `columbia
// all`) through the sweep scheduler at -j 1. Each iteration starts from a
// cold cache; experiments fan out as coordinators exactly as the CLI does.
// It is benchgate's whole-sweep allocs/op gate, and reports the engine's
// picks/op and parks/op through vmpi.Counters installed in the sweep's
// context. -j scaling is measured by colbench, which runs the real CLI
// (BENCHMARK.json).
func BenchmarkSweepSerial(b *testing.B) {
	exps := core.Experiments()
	var work vmpi.Counters
	ctx := vmpi.WithCounters(context.Background(), &work)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep.Configure(ctx, sweep.Options{Workers: 1}) // fresh pool, cold cache
		futs := make([]sweep.Future[[]*report.Table], 0, len(exps))
		for _, e := range exps {
			e := e
			futs = append(futs, sweep.Go(sweep.Default(), e.Run))
		}
		for _, f := range futs {
			if len(f.Wait()) == 0 {
				b.Fatal("no tables")
			}
		}
	}
	b.StopTimer()
	sweep.SetWorkers(0)
	reportWork(b, &work)
}

// reportWork reports the engine work a sweep benchmark counted, per
// iteration. Every iteration starts from a cold cache, so the counts are
// the same at every -cpu and on every run; only a change to the code can
// move them.
func reportWork(b *testing.B, w *vmpi.Counters) {
	b.ReportMetric(float64(w.Picks.Load())/float64(b.N), "picks/op")
	b.ReportMetric(float64(w.Parks.Load())/float64(b.N), "parks/op")
}

// BenchmarkSweepEnsemble times a noise-ensemble sweep: fig7 (the lightest
// experiment whose points run real vmpi compute phases) at 5 replicas
// under a seeded jitter spec on 8 workers, every iteration from a cold
// cache — the cost profile of `columbia -noise ... -replicas 5 run fig7`.
func BenchmarkSweepEnsemble(b *testing.B) {
	spec, err := noise.Parse("jitter=exp:0.05,seed=12")
	if err != nil {
		b.Fatal(err)
	}
	core.SetNoise(spec)
	core.SetReplicas(5)
	defer func() {
		core.SetNoise(nil)
		core.SetReplicas(0)
	}()
	e, err := core.Lookup("fig7")
	if err != nil {
		b.Fatal(err)
	}
	var work vmpi.Counters
	ctx := vmpi.WithCounters(context.Background(), &work)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep.Configure(ctx, sweep.Options{Workers: 8}) // fresh pool, cold cache
		if len(e.Run()) == 0 {
			b.Fatal("no tables")
		}
	}
	b.StopTimer()
	sweep.SetWorkers(0)
	reportWork(b, &work)
}

// --- One benchmark per paper item ---

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkStride(b *testing.B) { benchExperiment(b, "stride") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// --- Real-kernel host benchmarks (the workloads themselves) ---

func BenchmarkRealDGEMM(b *testing.B) {
	const n = 256
	a := make([]float64, n*n)
	bb := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i % 13)
		bb[i] = float64(i % 7)
	}
	team := omp.NewTeam(4)
	b.SetBytes(3 * 8 * n * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hpcc.Dgemm(team, a, bb, c, n)
	}
}

func BenchmarkRealCGClassS(b *testing.B) {
	p := npb.CGClasses[npb.ClassS]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		npb.RunCGSerial(p)
	}
}

func BenchmarkRealMG32(b *testing.B) {
	p := npb.MGParams{N: 32, Niter: 4}
	for i := 0; i < b.N; i++ {
		npb.RunMGSerial(p)
	}
}

func BenchmarkRealFT64(b *testing.B) {
	p := npb.FTParams{Nx: 64, Ny: 64, Nz: 64, Niter: 2}
	team := omp.NewTeam(4)
	for i := 0; i < b.N; i++ {
		npb.RunFTOpenMP(p, team)
	}
}

func BenchmarkRealBT12(b *testing.B) {
	p := npb.BTParams{N: 12, Niter: 5}
	team := omp.NewTeam(4)
	for i := 0; i < b.N; i++ {
		npb.RunBTOpenMP(p, team)
	}
}

func BenchmarkRealMDStep(b *testing.B) {
	cfg := md.DefaultConfig(4)
	cfg.Cutoff = 2.5
	sys := md.NewSystem(cfg)
	team := omp.NewTeam(4)
	sys.Forces(team)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step(team)
	}
}

// --- Engine benchmarks ---

// BenchmarkEngineAlltoall measures the virtual-time engine's throughput on
// a communication-heavy pattern (256 ranks, full exchange).
func BenchmarkEngineAlltoall(b *testing.B) {
	cl := machine.NewSingleNode(machine.AltixBX2b)
	for i := 0; i < b.N; i++ {
		vmpi.Run(vmpi.Config{Cluster: cl, Procs: 256}, func(c par.Comm) {
			par.AlltoallBytes(c, 4096)
		})
	}
}

// BenchmarkEngine2048Ranks measures scheduler cost at the paper's largest
// configuration.
func BenchmarkEngine2048Ranks(b *testing.B) {
	cl := machine.NewBX2bQuad()
	w := md.PaperWeakScaling()
	for i := 0; i < b.N; i++ {
		vmpi.Run(vmpi.Config{Cluster: cl, Procs: 2048, Nodes: 4}, w.Skeleton(2048))
	}
}

// BenchmarkEngineMixedScales replays the sweep's mix of scales on one
// worker arena: one 512-rank all-to-all, then 100 small 32-rank
// allreduce+allgather runs. The single-configuration engine benchmarks
// above never see what one run leaves in the scratch for the next; this
// one times the small runs after a big one.
func BenchmarkEngineMixedScales(b *testing.B) {
	cl := machine.NewSingleNode(machine.AltixBX2b)
	ctx := vmpi.WithArena(context.Background(), vmpi.NewArena())
	run := func(procs int, fn func(par.Comm)) {
		if _, err := vmpi.RunCtx(ctx, vmpi.Config{Cluster: cl, Procs: procs}, fn); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < b.N; i++ {
		run(512, func(c par.Comm) { par.AlltoallBytes(c, 4096) })
		for j := 0; j < 100; j++ {
			run(32, func(c par.Comm) {
				par.AllreduceBytes(c, 1024)
				par.AllgatherBytes(c, 1024)
			})
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §4) ---

// BenchmarkAblationGrouping compares connectivity-aware bin-packing against
// plain largest-first on the rotor grid.
func BenchmarkAblationGrouping(b *testing.B) {
	s := overset.RotorWake()
	b.Run("connectivity-aware", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			overset.GroupBlocks(s, 256)
		}
	})
	b.Run("largest-first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			overset.LargestFirst(s, 256)
		}
	})
}

// BenchmarkAblationCollectives compares the tree/recursive-doubling
// collectives against a naive root-fanout on the simulated machine: the
// structured algorithms should finish in far less virtual time. The bench
// reports real time; the virtual-time gap is asserted in the test suite.
func BenchmarkAblationCollectives(b *testing.B) {
	cl := machine.NewSingleNode(machine.AltixBX2b)
	b.Run("recursive-doubling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vmpi.Run(vmpi.Config{Cluster: cl, Procs: 128}, func(c par.Comm) {
				par.AllreduceBytes(c, 1024)
			})
		}
	})
	b.Run("naive-fanout", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vmpi.Run(vmpi.Config{Cluster: cl, Procs: 128}, func(c par.Comm) {
				naiveAllreduce(c, 1024)
			})
		}
	})
}

// naiveAllreduce is the oracle-free baseline: everyone sends to rank 0,
// rank 0 broadcasts back point-to-point.
func naiveAllreduce(c par.Comm, bytes float64) {
	if c.Rank() == 0 {
		for r := 1; r < c.Size(); r++ {
			c.RecvBytes(r, 1)
		}
		for r := 1; r < c.Size(); r++ {
			c.SendBytes(r, 2, bytes)
		}
	} else {
		c.SendBytes(0, 1, bytes)
		c.RecvBytes(0, 2)
	}
}

// BenchmarkAblationEagerThreshold sweeps message sizes across the
// eager/rendezvous boundary on the ping-pong pattern.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	cl := machine.NewSingleNode(machine.AltixBX2b)
	for _, size := range []float64{64, 2048, 65536} {
		b.Run(sizeName(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vmpi.Run(vmpi.Config{Cluster: cl, Procs: 2}, func(c par.Comm) {
					if c.Rank() == 0 {
						c.SendBytes(1, 1, size)
						c.RecvBytes(1, 2)
					} else {
						c.RecvBytes(0, 1)
						c.SendBytes(0, 2, size)
					}
				})
			}
		})
	}
}

func sizeName(s float64) string {
	switch {
	case s < 1024:
		return "64B"
	case s < 65536:
		return "2KiB"
	default:
		return "64KiB"
	}
}
