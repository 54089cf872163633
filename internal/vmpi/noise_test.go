package vmpi

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"columbia/internal/fault"
	"columbia/internal/machine"
	"columbia/internal/noise"
	"columbia/internal/par"
)

// noiseProgram is a small SPMD program with enough compute events per rank
// that jitter draws visibly shape the timeline: compute phases separated
// by ring shifts and barriers, so perturbed ranks drag their neighbors the
// way real noise amplifies through collectives (the ARCHER effect).
func noiseProgram(c par.Comm) {
	rank, size := c.Rank(), c.Size()
	w := machine.Work{Flops: 2e8, MemBytes: 1e7, WorkingSet: 1e5}
	for step := 0; step < 8; step++ {
		c.Compute(w)
		c.Send((rank+1)%size, 1, []float64{float64(rank)})
		c.Recv((rank+size-1)%size, 1)
		if step%3 == 0 {
			c.Barrier()
		}
	}
}

// noiseRun renders one run's outcome bit-exactly (hex float bits), so a
// one-ULP divergence between engines or replays is caught.
func noiseRun(t *testing.T, cfg Config) string {
	t.Helper()
	return noiseRunCtx(t, context.Background(), cfg)
}

// noiseRunCtx is noiseRun under ctx, which may select the engine.
func noiseRunCtx(t *testing.T, ctx context.Context, cfg Config) string {
	t.Helper()
	res, err := RunCtx(ctx, cfg, noiseProgram)
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time=%016x", math.Float64bits(res.Time))
	for i, s := range res.Stats {
		fmt.Fprintf(&b, "\nrank %d: compute=%016x finish=%016x",
			i, math.Float64bits(s.Compute), math.Float64bits(s.Finish))
	}
	return b.String()
}

func noiseBaseConfig() Config {
	return Config{Cluster: machine.NewSingleNode(machine.Altix3700), Procs: 4}
}

// TestNoisePerSeedDeterminism: one (spec, replica) point is a pure
// function of the Config — replaying it bit-identically — while different
// seeds and different replicas land elsewhere.
func TestNoisePerSeedDeterminism(t *testing.T) {
	spec, err := noise.Parse("jitter=exp:0.1,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	cfg := noiseBaseConfig()
	cfg.Noise = spec
	first := noiseRun(t, cfg)
	if again := noiseRun(t, cfg); again != first {
		t.Fatalf("same seed replays differently:\n%s\nvs\n%s", first, again)
	}

	silent := noiseBaseConfig()
	if noiseRun(t, silent) == first {
		t.Error("noise did not perturb the timeline at all")
	}

	otherSeed := noiseBaseConfig()
	otherSeed.Noise, _ = noise.Parse("jitter=exp:0.1,seed=43")
	if noiseRun(t, otherSeed) == first {
		t.Error("different seeds drew identical timelines")
	}

	rep := noiseBaseConfig()
	rep.Noise = spec.WithReplica(1)
	repRun := noiseRun(t, rep)
	if repRun == first {
		t.Error("replica 1 drew the same timeline as replica 0")
	}
	if again := noiseRun(t, rep); again != repRun {
		t.Error("replica 1 replays differently")
	}
}

// TestNoiseEngineEquivalence: both engines must replay a noisy run
// bit-identically — the jitter stream advances in per-rank program order
// inside the shared computeTime path, never in scheduler order.
func TestNoiseEngineEquivalence(t *testing.T) {
	for _, spec := range []string{
		"jitter=uniform:0.2,seed=7",
		"jitter=pareto:0.05:1.5,seed=9",
		"daemon=0.001:0.3:2.5",
		"jitter=exp:0.1,daemon=0.002:0.1:4:2,seed=3",
	} {
		s, err := noise.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := noiseBaseConfig()
		cfg.Noise = s
		calRun := noiseRun(t, cfg)
		gorRun := noiseRunCtx(t, WithEngine(context.Background(), EngineGoroutine), cfg)
		if calRun != gorRun {
			t.Errorf("engines disagree under noise %q\n--- calendar ---\n%s\n--- goroutine ---\n%s",
				spec, calRun, gorRun)
		}
	}
}

// TestNoiseFaultSeedDecorrelates: the fault plan's seed word feeds the
// stream derivation, so the same noise spec draws fresh jitter under a
// seeded plan — while a plan that only adds a seed never perturbs the
// machine itself.
func TestNoiseFaultSeedDecorrelates(t *testing.T) {
	spec, _ := noise.Parse("jitter=uniform:0.2,seed=5")
	plain := noiseBaseConfig()
	plain.Noise = spec
	seeded := noiseBaseConfig()
	seeded.Noise = spec
	seeded.Faults = fault.New().WithSeed(11)
	a, b := noiseRun(t, plain), noiseRun(t, seeded)
	if a == b {
		t.Error("fault-plan seed did not decorrelate the jitter draws")
	}
	// Determinism holds under the combined seeding too.
	if again := noiseRun(t, seeded); again != b {
		t.Error("plan-seeded noise replays differently")
	}
}

// TestNoiseOnlySlows: jitter and daemon windows model interference, so a
// noisy timeline can never finish before the silent one.
func TestNoiseOnlySlows(t *testing.T) {
	silent := noiseBaseConfig()
	base, err := TryRun(silent, noiseProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{
		"jitter=uniform:0.3,seed=1",
		"jitter=pareto:0.02:1.3,seed=1",
		"daemon=0.001:0.5:3",
	} {
		cfg := noiseBaseConfig()
		cfg.Noise, _ = noise.Parse(spec)
		res, err := TryRun(cfg, noiseProgram)
		if err != nil {
			t.Fatal(err)
		}
		if res.Time < base.Time {
			t.Errorf("noise %q sped the run up: %v < %v", spec, res.Time, base.Time)
		}
	}
}

// TestNoiseDaemonCpusetTargetsLowCPUs: with cpus=K only ranks placed on
// per-node CPU indices below K slow down — the boot-cpuset effect pinned
// to the first CPUs of every box.
func TestNoiseDaemonCpusetTargetsLowCPUs(t *testing.T) {
	run := func(cpus int) Result {
		cfg := noiseBaseConfig()
		cfg.Noise, _ = noise.Parse(fmt.Sprintf("daemon=1e9:1:2:%d", cpus))
		res, err := TryRun(cfg, noiseProgram)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	silent, err := TryRun(noiseBaseConfig(), noiseProgram)
	if err != nil {
		t.Fatal(err)
	}
	// An always-open window (duty 1, huge period) on CPUs < 2 doubles the
	// compute of ranks 0 and 1 only; ranks 2 and 3 keep their silent
	// compute totals. Dense packing puts rank r on CPU r.
	half := run(2)
	for r := 0; r < 4; r++ {
		got, want := half.Stats[r].Compute, silent.Stats[r].Compute
		if r < 2 {
			want *= 2
		}
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("cpus=2 rank %d compute = %v, want %v", r, got, want)
		}
	}
	// cpus=0 means every CPU slows.
	all := run(0)
	for r := 0; r < 4; r++ {
		got, want := all.Stats[r].Compute, 2*silent.Stats[r].Compute
		if math.Abs(got-want) > 1e-12*want {
			t.Errorf("cpus=0 rank %d compute = %v, want %v", r, got, want)
		}
	}
}
