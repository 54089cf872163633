package vmpi

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"columbia/internal/machine"
)

// collectMismatches returns ctx under a pick check that appends every
// mismatch it reports to *errs. It is for runs made one at a time; the
// driver loop and the rank coroutines of one run never report at once.
func collectMismatches(ctx context.Context, errs *[]error) context.Context {
	return WithPickCheck(ctx, func(err error) { *errs = append(*errs, err) })
}

// requireAgreement fails t if the pick check reported a mismatch, quoting
// the first.
func requireAgreement(t testing.TB, what string, errs []error) {
	t.Helper()
	if len(errs) > 0 {
		t.Fatalf("%s: %d calendar picks disagree with the scan; the first: %v", what, len(errs), errs[0])
	}
}

// TestPickCheckReportsMismatch: a calendar whose root is not the scan's
// pick — another rank, no rank at all, or the right rank at another time —
// is reported once, naming the pick, the run's fingerprint and both sides,
// and the run goes on with the calendar's pick.
func TestPickCheckReportsMismatch(t *testing.T) {
	cases := []struct {
		name  string
		procs int
		setup func(e *engine) // ranks start ready at t=0 with no event
		want  string          // the report after "pick 1 of <fingerprint>: "
		pick  int             // the rank next returns; -1 for none
	}{
		{"wrong-rank", 4, func(e *engine) { e.schedule(e.ranks[2], 0) },
			"calendar rank 2 at 0, scan rank 0 at 0", 2},
		{"empty-calendar", 4, func(e *engine) {
			for _, id := range []int{0, 2, 3} {
				e.ranks[id].status = stBlockedBarrier
			}
		}, "calendar none, scan rank 1 at 0", -1},
		{"wrong-time", 4, func(e *engine) {
			for _, r := range e.ranks {
				r.now = 2e-6
				e.schedule(r, r.now)
			}
			e.schedule(e.ranks[0], 1e-6)
		}, "calendar rank 0 at 1e-06, scan rank 0 at 2e-06", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := Config{Cluster: machine.NewSingleNode(machine.Altix3700), Procs: c.procs}
			e, err := newEngine(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got []error
			e.ctx, e.active = context.Background(), c.procs
			e.check = func(err error) { got = append(got, err) }
			c.setup(e)
			r := e.next()
			e.stop()
			awaitGoroutines(t, c.name, before)

			want := fmt.Sprintf("pick 1 of %s: %s", cfg.Fingerprint(), c.want)
			if len(got) != 1 || got[0].Error() != want {
				t.Fatalf("reports = %v, want exactly %q", got, want)
			}
			switch {
			case c.pick < 0 && r != nil:
				t.Errorf("next picked rank %d, want none", r.id)
			case c.pick >= 0 && (r == nil || r.id != c.pick):
				t.Errorf("next picked %v, want the calendar's rank %d", r, c.pick)
			}
		})
	}
}
