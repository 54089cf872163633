package vmpi

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"columbia/internal/fault"
	"columbia/internal/machine"
	"columbia/internal/par"
)

// TestFaultConfigValidation is the table-driven satellite: every invalid
// configuration comes back as a structured ErrConfig (or ErrNodeDown)
// RunError from TryRun instead of a panic.
func TestFaultConfigValidation(t *testing.T) {
	cl := machine.NewSingleNode(machine.Altix3700)
	noop := func(par.Comm) {}
	cases := []struct {
		name     string
		cfg      Config
		wantKind ErrorKind
		wantSub  string
	}{
		{"nil cluster", Config{Procs: 4}, ErrConfig, "Cluster is required"},
		{"zero procs", Config{Cluster: cl}, ErrConfig, "Procs must be positive"},
		{"negative procs", Config{Cluster: cl, Procs: -3}, ErrConfig, "Procs must be positive"},
		{"too many ranks", Config{Cluster: cl, Procs: 513}, ErrConfig, "too few CPUs"},
		{"stride overflow", Config{Cluster: cl, Procs: 400, Stride: 2}, ErrConfig, "too few CPUs"},
		{"bad node count", Config{Cluster: cl, Procs: 8, Nodes: 4}, ErrConfig, "invalid node count"},
		{"node down", Config{Cluster: cl, Procs: 4,
			Faults: fault.New().LoseNode(0)}, ErrNodeDown, "fault plan lost"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := TryRun(c.cfg, noop)
			var re *RunError
			if !errors.As(err, &re) {
				t.Fatalf("TryRun error = %v (%T), want *RunError", err, err)
			}
			if re.Kind != c.wantKind {
				t.Errorf("kind = %s, want %s", re.Kind, c.wantKind)
			}
			if !strings.Contains(re.Error(), c.wantSub) {
				t.Errorf("error %q does not mention %q", re.Error(), c.wantSub)
			}
			if re.Retryable() {
				t.Error("deterministic config/node-down failure must not be retryable")
			}
		})
	}
}

// TestUnknownEngineIsConfigError: an engine selector RunCtx does not know
// fails the run as a structured config error before any rank starts.
func TestUnknownEngineIsConfigError(t *testing.T) {
	cfg := Config{Cluster: machine.NewSingleNode(machine.Altix3700), Procs: 2}
	_, err := RunCtx(WithEngine(context.Background(), "bogus"), cfg, func(par.Comm) {})
	var re *RunError
	if !errors.As(err, &re) || re.Kind != ErrConfig || !strings.Contains(re.Error(), `unknown engine "bogus"`) {
		t.Errorf("RunCtx under engine %q = %v, want an ErrConfig naming the engine", "bogus", err)
	}
}

// TestFaultDeadlockEnumeratesBlockedRanks pins the structured deadlock
// detector: kind, per-rank blocked detail, and rank order.
func TestFaultDeadlockEnumeratesBlockedRanks(t *testing.T) {
	cl := machine.NewSingleNode(machine.Altix3700)
	_, err := TryRun(Config{Cluster: cl, Procs: 3}, func(c par.Comm) {
		switch c.Rank() {
		case 0, 1:
			c.RecvBytes(2, 9) // rank 2 never sends
		default:
			c.Barrier() // never completes: ranks 0 and 1 are stuck in Recv
		}
	})
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("TryRun error = %v, want *RunError", err)
	}
	if re.Kind != ErrDeadlock {
		t.Fatalf("kind = %s, want deadlock", re.Kind)
	}
	if len(re.Blocked) != 3 {
		t.Fatalf("blocked %d ranks, want 3: %v", len(re.Blocked), re.Blocked)
	}
	for i, want := range []BlockedRank{
		{Rank: 0, Op: "recv", Src: 2, Tag: 9},
		{Rank: 1, Op: "recv", Src: 2, Tag: 9},
		{Rank: 2, Op: "barrier", Src: -1, Tag: -1},
	} {
		got := re.Blocked[i]
		got.Time = 0 // virtual times are model detail here
		if got != want {
			t.Errorf("blocked[%d] = %+v, want %+v", i, got, want)
		}
	}
	if !strings.Contains(re.Error(), "rank 1 waiting Recv(src=2 tag=9)") {
		t.Errorf("rendered deadlock lacks blocked-rank detail:\n%s", re.Error())
	}
	if re.Retryable() {
		t.Error("deadlocks are deterministic; must not be retryable")
	}
}

// TestFaultRankPanicCarriesStack pins ErrPanic: the rank id, the original
// panic value, and a stack that names the function that died.
func TestFaultRankPanicCarriesStack(t *testing.T) {
	cl := machine.NewSingleNode(machine.Altix3700)
	_, err := TryRun(Config{Cluster: cl, Procs: 4}, explodingRankProgram)
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("TryRun error = %v, want *RunError", err)
	}
	if re.Kind != ErrPanic {
		t.Fatalf("kind = %s, want panic", re.Kind)
	}
	if re.Rank != 2 {
		t.Errorf("rank = %d, want 2", re.Rank)
	}
	if re.PanicValue != "rank 2 exploded" {
		t.Errorf("panic value = %v", re.PanicValue)
	}
	if !strings.Contains(re.Stack, "explodingRankProgram") {
		t.Errorf("stack does not name the panic site:\n%s", re.Stack)
	}
}

func explodingRankProgram(c par.Comm) {
	c.Compute(machine.Work{Flops: 1e6})
	if c.Rank() == 2 {
		panic("rank 2 exploded")
	}
	c.Barrier()
}

// TestFaultRunPanicsWithRunError pins the legacy contract: Run still
// panics, but the panic value is now the structured error.
func TestFaultRunPanicsWithRunError(t *testing.T) {
	defer func() {
		re, ok := recover().(*RunError)
		if !ok || re.Kind != ErrConfig {
			t.Fatalf("Run panicked with %v, want a *RunError of kind config", re)
		}
	}()
	Run(Config{Procs: 1}, func(par.Comm) {})
	t.Fatal("Run returned on an invalid config")
}

// TestFaultCancellationStopsRun: a canceled context stops an otherwise
// endless simulation at its next scheduling step. That no rank goroutine
// is left behind is TestFaultShutdownLeavesNoGoroutines' job.
func TestFaultCancellationStopsRun(t *testing.T) {
	cl := machine.NewSingleNode(machine.Altix3700)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := RunCtx(ctx, Config{Cluster: cl, Procs: 8}, func(c par.Comm) {
			for { // endless in virtual time; only cancellation ends it
				c.Compute(machine.Work{Flops: 1e6})
			}
		})
		done <- err
	}()
	select {
	case err := <-done:
		var re *RunError
		if !errors.As(err, &re) || re.Kind != ErrCanceled {
			t.Fatalf("err = %v, want ErrCanceled RunError", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Error("RunError should unwrap to context.Canceled")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not stop the simulation")
	}
}

// TestFaultShutdownLeavesNoGoroutines: however a run ends — cleanly, in a
// deadlock, a rank panic, a sanitizer or link-down failure, a canceled
// context or a blown deadline — no rank goroutine outlives it, under either
// engine. A run that fails with ranks still parked must resume each of them
// to unwind (shutdown); one that skips that leaks them silently, because a
// parked rank never touches the engine again, so neither the results nor
// the race detector can tell. Only the goroutine count does.
func TestFaultShutdownLeavesNoGoroutines(t *testing.T) {
	const clean ErrorKind = -1
	single := machine.NewSingleNode(machine.Altix3700)
	endless := func(c par.Comm) {
		for {
			c.Compute(machine.Work{Flops: 1e6})
		}
	}
	cases := []struct {
		name    string
		cfg     Config
		timeout time.Duration // > 0: run under this deadline; < 0: pre-canceled
		fn      func(par.Comm)
		want    ErrorKind
	}{
		{"clean", Config{Cluster: single, Procs: 4}, 0,
			func(c par.Comm) { par.AllreduceBytes(c, 4096) }, clean},
		{"deadlock", Config{Cluster: single, Procs: 4}, 0,
			func(c par.Comm) { c.RecvBytes((c.Rank()+1)%c.Size(), 3) }, ErrDeadlock},
		{"panic", Config{Cluster: single, Procs: 4}, 0, func(c par.Comm) {
			if c.Rank() == 2 {
				panic("rank 2 exploded")
			}
			c.Barrier()
		}, ErrPanic},
		{"sanitizer", Config{Cluster: single, Procs: 2, Sanitize: true}, 0, func(c par.Comm) {
			if c.Rank() == 0 {
				c.SendBytes(1, 5, 64) // never received
			}
		}, ErrSanitizer},
		{"linkdown", Config{Cluster: machine.NewBX2bQuad(), Procs: 8, Nodes: 4,
			Faults: fault.New().DegradeLink(0, 0)}, 0,
			func(c par.Comm) { par.AlltoallBytes(c, 4096) }, ErrLinkDown},
		{"canceled", Config{Cluster: single, Procs: 4}, -1, endless, ErrCanceled},
		{"timeout", Config{Cluster: single, Procs: 4}, 5 * time.Millisecond, endless, ErrTimeout},
	}
	for _, eng := range []Engine{EngineCalendar, EngineGoroutine} {
		for _, c := range cases {
			t.Run(string(eng)+"/"+c.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				ctx, cancel := WithEngine(context.Background(), eng), func() {}
				switch {
				case c.timeout > 0:
					ctx, cancel = context.WithTimeout(ctx, c.timeout)
				case c.timeout < 0:
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				}
				_, err := RunCtx(ctx, c.cfg, c.fn)
				cancel()
				var re *RunError
				switch {
				case c.want == clean && err != nil:
					t.Fatalf("run failed: %v", err)
				case c.want != clean && (!errors.As(err, &re) || re.Kind != c.want):
					t.Fatalf("err = %v, want a %s RunError", err, c.want)
				}
				// A rank that handed control away may not have returned from
				// its goroutine yet; give the exits a moment.
				after := runtime.NumGoroutine()
				for deadline := time.After(2 * time.Second); after > before; after = runtime.NumGoroutine() {
					select {
					case <-deadline:
						t.Fatalf("%s: %d goroutines before, %d after", c.name, before, after)
					case <-time.After(time.Millisecond):
					}
				}
			})
		}
	}
}

// TestFaultTimeoutIsRetryable: a deadline produces ErrTimeout, the one
// kind the sweep scheduler always retries.
func TestFaultTimeoutIsRetryable(t *testing.T) {
	cl := machine.NewSingleNode(machine.Altix3700)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := RunCtx(ctx, Config{Cluster: cl, Procs: 2}, func(c par.Comm) {
		for {
			c.Compute(machine.Work{Flops: 1e6})
		}
	})
	var re *RunError
	if !errors.As(err, &re) || re.Kind != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout RunError", err)
	}
	if !re.Retryable() {
		t.Error("timeouts must be retryable")
	}
}

// TestFaultSlowNodeInflatesCompute: SlowNode is the boot-cpuset/OS-jitter
// emulation — compute time scales by exactly the injected factor.
func TestFaultSlowNodeInflatesCompute(t *testing.T) {
	cl := machine.NewSingleNode(machine.AltixBX2b)
	w := machine.Work{Flops: 6.4e9, Efficiency: 1}
	run := func(p *fault.Plan) float64 {
		res, err := TryRun(Config{Cluster: cl, Procs: 4, Faults: p}, func(c par.Comm) { c.Compute(w) })
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	healthy := run(nil)
	slowed := run(fault.New().SlowNode(0, 1.5))
	if r := slowed / healthy; r < 1.499 || r > 1.501 {
		t.Errorf("SlowNode(1.5) inflated compute by %.4f, want 1.5", r)
	}
	// A single slowed CPU drags only the rank placed on it; the makespan
	// still follows the slowest rank.
	oneSlow := run(fault.New().SlowCPU(0, 0, 2))
	if r := oneSlow / healthy; r < 1.999 || r > 2.001 {
		t.Errorf("SlowCPU(2) makespan ratio = %.4f, want 2 (slowest rank)", r)
	}
}

// TestFaultDegradedBusSlowsMemoryBoundOnly: the roofline keeps its shape —
// a sick bus hurts bandwidth-bound phases and leaves compute-bound phases
// alone.
func TestFaultDegradedBusSlowsMemoryBound(t *testing.T) {
	cl := machine.NewSingleNode(machine.Altix3700)
	run := func(w machine.Work, p *fault.Plan) float64 {
		res, err := TryRun(Config{Cluster: cl, Procs: 1, Faults: p}, func(c par.Comm) { c.Compute(w) })
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	memBound := machine.Work{MemBytes: 3.8e9, WorkingSet: 1e9}
	plan := fault.New().DegradeBus(0, 0, 0.5)
	if r := run(memBound, plan) / run(memBound, nil); r < 1.99 || r > 2.01 {
		t.Errorf("half-bandwidth bus slowed memory-bound work by %.3f, want 2", r)
	}
	cpuBound := machine.Work{Flops: 6e9, Efficiency: 1}
	if r := run(cpuBound, plan) / run(cpuBound, nil); r != 1 {
		t.Errorf("half-bandwidth bus slowed compute-bound work by %.3f, want 1", r)
	}
}

// TestFaultDegradedLinkSlowsInternode: throttling one box's internode
// capacity slows cross-box traffic and leaves single-box runs untouched.
func TestFaultDegradedLinkSlowsInternode(t *testing.T) {
	quad := machine.NewBX2bQuad()
	pattern := func(cl *machine.Cluster, nodes int, p *fault.Plan) float64 {
		res, err := TryRun(Config{Cluster: cl, Procs: 16, Nodes: nodes, Faults: p}, func(c par.Comm) {
			for i := 0; i < 4; i++ {
				par.AlltoallBytes(c, 64*1024)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	plan := fault.New().DegradeLink(0, 0.25)
	healthy := pattern(quad, 4, nil)
	faulted := pattern(quad, 4, plan)
	if faulted <= healthy {
		t.Errorf("degraded link: alltoall %.4g s, want slower than healthy %.4g s", faulted, healthy)
	}
	single := machine.NewSingleNode(machine.AltixBX2b)
	if a, b := pattern(single, 1, nil), pattern(single, 1, plan); a != b {
		t.Errorf("link fault leaked into a single-box run: %.6g vs %.6g", a, b)
	}
}

// TestFaultFlappingLinkDeterministic: two identical runs under a flapping
// link produce bit-identical results, and the flap costs more than the
// steady degraded case it flaps down to... no — less, because the link is
// healthy part of the time.
func TestFaultFlappingLinkDeterministic(t *testing.T) {
	quad := machine.NewBX2bQuad()
	run := func(p *fault.Plan) float64 {
		res, err := TryRun(Config{Cluster: quad, Procs: 16, Nodes: 4, Faults: p}, func(c par.Comm) {
			for i := 0; i < 8; i++ {
				par.AlltoallBytes(c, 256*1024)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	flap := fault.New().FlapLink(0, 1e-4, 0.5, 0.1)
	a, b := run(flap), run(flap)
	if a != b {
		t.Errorf("flapping link broke determinism: %.12g vs %.12g", a, b)
	}
	healthy := run(nil)
	steady := run(fault.New().DegradeLink(0, 0.1))
	if !(a > healthy && a < steady) {
		t.Errorf("flapping (%.4g) should land between healthy (%.4g) and steadily degraded (%.4g)",
			a, healthy, steady)
	}
}

// TestFaultFingerprintSeparatesCacheEntries is the acceptance criterion:
// faulted and healthy configs can never share a memo-cache key, while a
// nil and an empty plan (both healthy) deliberately collide.
func TestFaultFingerprintSeparatesCacheEntries(t *testing.T) {
	cl := machine.NewSingleNode(machine.Altix3700)
	base := Config{Cluster: cl, Procs: 8}
	faulted := base
	faulted.Faults = fault.New().SlowNode(0, 1.2)
	if base.Fingerprint() == faulted.Fingerprint() {
		t.Error("faulted config shares the healthy fingerprint")
	}
	if !strings.Contains(faulted.Fingerprint(), "faults=slownode=0:1.2") {
		t.Errorf("fault plan not visible in fingerprint: %s", faulted.Fingerprint())
	}
	empty := base
	empty.Faults = fault.New()
	if base.Fingerprint() != empty.Fingerprint() {
		t.Error("an empty plan must not perturb the healthy fingerprint")
	}
	other := base
	other.Faults = fault.New().SlowNode(0, 1.3)
	if faulted.Fingerprint() == other.Fingerprint() {
		t.Error("different plans collide")
	}
}

// TestFaultTransientNodeDownRetryable: the plan's transient marking flows
// through to RunError.Retryable, which the sweep scheduler keys on.
func TestFaultTransientNodeDownRetryable(t *testing.T) {
	cl := machine.NewSingleNode(machine.Altix3700)
	_, err := TryRun(Config{Cluster: cl, Procs: 2,
		Faults: fault.New().LoseNode(0).MarkTransient()}, func(par.Comm) {})
	var re *RunError
	if !errors.As(err, &re) || re.Kind != ErrNodeDown {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	if !re.Retryable() {
		t.Error("transient node loss should be retryable")
	}
}

// TestFaultWorkerCrashKind: the quarantine error minted by the dist
// supervisor labels cells "!workercrash" and never re-enters the sweep's
// retry loop, even when the active plan is transient.
func TestFaultWorkerCrashKind(t *testing.T) {
	re := &RunError{Kind: ErrWorkerCrash, Rank: -1, Transient: true,
		Msg: "point killed 3 consecutive workers"}
	if re.FailureKind() != "workercrash" {
		t.Errorf("FailureKind = %q, want workercrash", re.FailureKind())
	}
	if re.Retryable() {
		t.Error("ErrWorkerCrash must never be retryable — the supervisor already spent its restart budget")
	}
	if got := re.Error(); got != "vmpi: point killed 3 consecutive workers" {
		t.Errorf("Error() = %q", got)
	}
}
