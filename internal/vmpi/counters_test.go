package vmpi

import (
	"context"
	"testing"

	"columbia/internal/machine"
	"columbia/internal/par"
)

// countedProgram is a fixed 8-rank program touching every counted path:
// staggered entries, a byte Allreduce, a barrier, an all-to-all and a
// point-to-point ring.
func countedProgram(path collectivePath) func(par.Comm) {
	return func(c par.Comm) {
		rank, size := c.Rank(), c.Size()
		c.(Clock).Elapse(float64(rank) * 1e-6)
		par.AllreduceBytes(path(c), 1024)
		c.Barrier()
		par.AlltoallBytes(path(c), 256)
		c.Send((rank+1)%size, 3, []float64{float64(rank)})
		c.Recv((rank+size-1)%size, 3)
	}
}

// counts snapshots c's fields.
func counts(c *Counters) [5]int64 {
	return [5]int64{c.Picks.Load(), c.Parks.Load(), c.SelfContinues.Load(), c.Sends.Load(), c.Handoffs.Load()}
}

// TestCountersPinned pins the work counts of one fixed program, which only
// a change to the engine or the collectives can move. The runs are made
// under the pick check, which must report nothing and change no bit of
// the result. Running the collectives' plans in the ranks' coroutines does
// the same work with more parks, and a second run under the same Counters
// adds exactly as much again.
func TestCountersPinned(t *testing.T) {
	cfg := Config{Cluster: machine.NewSingleNode(machine.Altix3700), Procs: 8}
	//                  picks parks selfs sends handoffs
	driver := [5]int64{103, 37, 4, 88, 36}
	coroutine := [5]int64{103, 91, 4, 88, 36}
	for _, c := range []struct {
		name string
		path collectivePath
		want [5]int64
	}{
		{"driver", onDriver, driver},
		{"coroutine", inCoroutine, coroutine},
	} {
		res, err := RunCtx(context.Background(), cfg, countedProgram(c.path))
		unchecked := renderRun(res, err, nil)
		var ctr Counters
		var bad []error
		ctx := collectMismatches(WithCounters(context.Background(), &ctr), &bad)
		for run := 1; run <= 2; run++ {
			res, err := RunCtx(ctx, cfg, countedProgram(c.path))
			if err != nil {
				t.Fatal(err)
			}
			if got := renderRun(res, err, nil); got != unchecked {
				t.Errorf("%s: checked run renders\n%s\nwant the unchecked\n%s", c.name, got, unchecked)
			}
			want := c.want
			for i := range want {
				want[i] *= int64(run)
			}
			if got := counts(&ctr); got != want {
				t.Errorf("%s, after %d runs: picks, parks, selfs, sends, handoffs = %v, want %v", c.name, run, got, want)
			}
		}
		requireAgreement(t, c.name, bad)
	}
}

// TestAllocBudgetCounters: installing Counters adds no allocation to a
// run; the warm-run budgets of TestAllocBudgetWarmRun hold with counting
// on, on both ways a run gets its scratch.
func TestAllocBudgetCounters(t *testing.T) {
	cl := machine.NewSingleNode(machine.Altix3700)
	allreduce := func(c par.Comm) { par.AllreduceBytes(c, 1024) }
	var ctr Counters
	counted := WithCounters(context.Background(), &ctr)
	for _, c := range []struct {
		name   string
		ctx    context.Context
		procs  int
		budget float64
	}{
		{"pool/2", counted, 2, 9},
		{"pool/8", counted, 8, 15},
		{"arena/8", WithArena(counted, NewArena()), 8, 15},
	} {
		got := testing.AllocsPerRun(5, func() {
			if _, err := RunCtx(c.ctx, Config{Cluster: cl, Procs: c.procs}, allreduce); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per warm counted run", c.name, got)
		if got > c.budget {
			t.Errorf("%s: a warm counted AllreduceBytes run allocates %.0f objects, budget %.0f", c.name, got, c.budget)
		}
	}
	if ctr.Picks.Load() == 0 {
		t.Error("the counted runs counted no picks")
	}
}
