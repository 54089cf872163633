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
// context or a blown deadline — no rank coroutine outlives the scratch
// that owns it, under either engine. A clean run parks its ranks'
// coroutines in the recycled scratch for the next run, so a repeat of the
// same clean run adds none; a failed run drops its scratch and must halt
// every coroutine in it first (stop), including ranks parked mid-program.
// One that skips that leaks them silently, because a parked coroutine never
// touches the engine again, so neither the results nor the race detector
// can tell. Only the goroutine count does.
//
// The subtests after the engine loop cover the other ways a scratch or a
// rank record is dropped: recycle's trim to max(P, idleRanksMin), a full
// scratch pool refusing a scratch, and an arena the GC finds unreachable.
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
		// The unmatched send fails the run at Finalize, after every rank
		// has finished: no rank is left to unwind, but the scratch is still
		// dropped with every coroutine parked in it.
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
				run := func() error {
					ctx, cancel := WithEngine(context.Background(), eng), func() {}
					switch {
					case c.timeout > 0:
						ctx, cancel = context.WithTimeout(ctx, c.timeout)
					case c.timeout < 0:
						ctx, cancel = context.WithCancel(ctx)
						cancel()
					}
					defer cancel()
					_, err := RunCtx(ctx, c.cfg, c.fn)
					return err
				}
				if c.want == clean {
					// The first run may build coroutines the pool then keeps.
					if err := run(); err != nil {
						t.Fatalf("warm-up run failed: %v", err)
					}
				}
				before := runtime.NumGoroutine()
				err := run()
				var re *RunError
				switch {
				case c.want == clean && err != nil:
					t.Fatalf("run failed: %v", err)
				case c.want != clean && (!errors.As(err, &re) || re.Kind != c.want):
					t.Fatalf("err = %v, want a %s RunError", err, c.want)
				}
				awaitGoroutines(t, c.name, before)
			})
		}
	}

	barrier := func(c par.Comm) { c.Barrier() }
	t.Run("pool-full", func(t *testing.T) {
		// A clean run whose scratch the full pool refuses must halt the
		// scratch's coroutines before leaving it to the GC. The count
		// alone could be masked by an unrelated arena's finalizer halting
		// coroutines meanwhile, so the scratch is checked directly too.
		e, err := newEngine(Config{Cluster: single, Procs: 4}, EngineCalendar, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.run(context.Background(), barrier); err != nil {
			t.Fatal(err)
		}
		s := e.scr
		before, owned := runtime.NumGoroutine(), len(s.ranks)
		var fillers int
		for scratchPool.Put(new(engineScratch)) {
			fillers++
		}
		e.recycle()
		for ; fillers > 0; fillers-- {
			scratchPool.Get() // LIFO: exactly the fillers come back
		}
		if len(s.ranks) != 0 {
			t.Errorf("refused scratch still holds %d rank records", len(s.ranks))
		}
		awaitGoroutines(t, "pool-full", before-owned)
	})
	t.Run("trim", func(t *testing.T) {
		// A 1,024-rank run followed by a 4-rank run on the same scratch:
		// the 4-rank run's recycle keeps idleRanksMin rank records and
		// halts the other coroutines.
		a := NewArena()
		ctx := WithArena(context.Background(), a)
		before := runtime.NumGoroutine()
		for _, cfg := range []Config{
			{Cluster: machine.NewBX2bQuad(), Procs: 1024},
			{Cluster: single, Procs: 4},
		} {
			if _, err := RunCtx(ctx, cfg, barrier); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(a.scr.ranks); n > idleRanksMin {
			t.Errorf("scratch keeps %d rank records after a 4-rank run, want at most %d", n, idleRanksMin)
		}
		awaitGoroutines(t, "trim", before+idleRanksMin)
	})
	t.Run("arena-dropped", func(t *testing.T) {
		// An arena that goes out of reach takes its scratch with it; its
		// finalizer halts the scratch's coroutines. One collection queues
		// the finalizer.
		before, owned := func() (int, int) {
			a := NewArena()
			if _, err := RunCtx(WithArena(context.Background(), a), Config{Cluster: single, Procs: 4}, barrier); err != nil {
				t.Fatal(err)
			}
			return runtime.NumGoroutine(), len(a.scr.ranks)
		}()
		runtime.GC()
		awaitGoroutines(t, "arena-dropped", before-owned)
	})
}

// awaitGoroutines fails the test unless the goroutine count falls to at
// most want within two seconds; a halted coroutine exits at once, and a
// queued finalizer runs soon after the collection that queued it.
func awaitGoroutines(t *testing.T, name string, want int) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= want {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("%s: %d goroutines, want at most %d", name, got, want)
		case <-time.After(time.Millisecond):
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
