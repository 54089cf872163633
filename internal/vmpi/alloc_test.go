package vmpi

import (
	"context"
	"testing"

	"columbia/internal/machine"
	"columbia/internal/par"
)

// The engine's hot paths are pooled: message structs come from an
// engine-local free list (released back on receive), mailbox queues reuse
// their ring storage, and heap events live in a reused slice. These tests
// pin the steady-state allocation budgets so a regression (a forgotten
// release, a per-event allocation sneaking into yield, next or the driver
// loop) fails loudly.
//
// The per-operation budgets use the delta technique: run the same program
// with K and 2K operations and attribute the difference to the extra K.
// Fixed per-run costs — comm handles, the mailbox index, result
// assembly — appear in both runs and cancel, leaving the marginal
// per-operation rate. TestAllocBudgetWarmRun pins that fixed cost itself.
//
// Budgets:
//
//	ping-pong round-trip (2 msgs) — 0 allocs: the receive releases each
//	  message struct before the next send needs one, so the free list
//	  reaches steady state immediately.
//	barrier across 8 ranks       — 0 allocs: release events reuse the
//	  pooled heap storage; nothing is allocated per barrier.
//	one-way burst per message    — 0 allocs: the sender outruns the
//	  receiver, but the free list keeps the message structs of earlier
//	  runs, so in-flight messages reuse them.
//	warm run, fixed cost         — 7 + 1 per rank: the engine, the
//	  network model, the placement (4 objects) and the result's stats
//	  slice; per rank, its comm handle. The scratch itself (rank records
//	  with their parked coroutines, mailboxes, free lists) comes back from
//	  the pool or arena.

// allocRun measures total allocations for one engine run of fn.
func allocRun(t *testing.T, procs int, fn func(par.Comm)) float64 {
	t.Helper()
	cfg := Config{Cluster: machine.NewSingleNode(machine.Altix3700), Procs: procs}
	return testing.AllocsPerRun(5, func() { Run(cfg, fn) })
}

// pingPong bounces k round-trips between ranks 0 and 1.
func pingPong(k int) func(par.Comm) {
	return func(c par.Comm) {
		for i := 0; i < k; i++ {
			if c.Rank() == 0 {
				c.SendBytes(1, 3, 1024)
				c.RecvBytes(1, 5)
			} else {
				c.RecvBytes(0, 3)
				c.SendBytes(0, 5, 1024)
			}
		}
	}
}

func TestAllocBudgetPingPong(t *testing.T) {
	const k = 2000
	base := allocRun(t, 2, pingPong(k))
	double := allocRun(t, 2, pingPong(2*k))
	perRT := (double - base) / k
	t.Logf("per round-trip: %.4f allocs (base %.0f, double %.0f)", perRT, base, double)
	if perRT > 0.01 {
		t.Errorf("ping-pong round-trip allocates %.4f/op, budget is 0: a message release is being missed", perRT)
	}
}

func TestAllocBudgetBarrier(t *testing.T) {
	const k = 2000
	barriers := func(k int) func(par.Comm) {
		return func(c par.Comm) {
			for i := 0; i < k; i++ {
				c.Barrier()
			}
		}
	}
	base := allocRun(t, 8, barriers(k))
	double := allocRun(t, 8, barriers(2*k))
	perBar := (double - base) / k
	t.Logf("per barrier (8 ranks): %.4f allocs (base %.0f, double %.0f)", perBar, base, double)
	if perBar > 0.01 {
		t.Errorf("barrier allocates %.4f/op, budget is 0: release events must reuse pooled heap storage", perBar)
	}
}

func TestAllocBudgetBurst(t *testing.T) {
	const k = 2000
	burst := func(k int) func(par.Comm) {
		return func(c par.Comm) {
			for i := 0; i < k; i++ {
				if c.Rank() == 0 {
					c.SendBytes(1, i%4, 1024)
				} else {
					c.RecvBytes(0, i%4)
				}
			}
		}
	}
	base := allocRun(t, 2, burst(k))
	double := allocRun(t, 2, burst(2*k))
	perMsg := (double - base) / k
	t.Logf("per burst message: %.4f allocs (base %.0f, double %.0f)", perMsg, base, double)
	if perMsg > 0.01 {
		t.Errorf("burst send allocates %.4f/msg, budget is 0: message structs must come from the free list", perMsg)
	}
}

// TestAllocBudgetWarmRun pins a warm run's fixed cost, which the delta
// budgets cancel out, on both ways a run gets its scratch: the
// process-wide scratchPool and an arena installed with WithArena.
// AllocsPerRun's warm-up run grows the scratch, so rank records, their
// coroutines and mailbox storage are not counted; one more object per run
// on either path fails.
func TestAllocBudgetWarmRun(t *testing.T) {
	cl := machine.NewSingleNode(machine.Altix3700)
	allreduce := func(c par.Comm) { par.AllreduceBytes(c, 1024) }
	arena := WithArena(context.Background(), NewArena())
	for _, c := range []struct {
		name   string
		ctx    context.Context
		procs  int
		budget float64
	}{
		{"pool/2", context.Background(), 2, 9},
		{"pool/8", context.Background(), 8, 15},
		{"arena/2", arena, 2, 9},
		{"arena/8", arena, 8, 15},
	} {
		run := func() {
			if _, err := RunCtx(c.ctx, Config{Cluster: cl, Procs: c.procs}, allreduce); err != nil {
				t.Fatal(err)
			}
		}
		got := testing.AllocsPerRun(5, run)
		t.Logf("%s: %.0f allocs per warm run", c.name, got)
		if got > c.budget {
			t.Errorf("%s: a warm AllreduceBytes run allocates %.0f objects, budget %.0f", c.name, got, c.budget)
		}
	}
}
