package vmpi

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"columbia/internal/fault"
	"columbia/internal/machine"
	"columbia/internal/par"
)

// coroutineComm hides the engine's par.PlanRunner, so par runs every
// collective plan through Send and Recv in the rank's coroutine: the path
// the engine took before plans. It forwards AnnounceCollective, so a
// sanitized run checks the same collective sequence on both paths.
type coroutineComm struct{ par.Comm }

func (c coroutineComm) AnnounceCollective(kind string, operand float64) {
	c.Comm.(par.CollectiveAnnouncer).AnnounceCollective(kind, operand)
}

// collectivePath turns a program over par.Comm into one that runs its
// collectives on the driver (the engine's own comm) or in the coroutine.
type collectivePath func(par.Comm) par.Comm

var (
	onDriver    collectivePath = func(c par.Comm) par.Comm { return c }
	inCoroutine collectivePath = func(c par.Comm) par.Comm { return coroutineComm{c} }
)

// renderRun renders a run's outcome bit-exactly: the error text on
// failure, else the result's floats as hex bits, followed by every rank's
// Allreduce outputs.
func renderRun(res Result, err error, outs [][]float64) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time=%016x", math.Float64bits(res.Time))
	for i, s := range res.Stats {
		fmt.Fprintf(&b, "\nrank %d: compute=%016x comm=%016x finish=%016x",
			i, math.Float64bits(s.Compute), math.Float64bits(s.Comm), math.Float64bits(s.Finish))
	}
	for i, o := range outs {
		fmt.Fprintf(&b, "\nrank %d out:", i)
		for _, x := range o {
			fmt.Fprintf(&b, " %016x", math.Float64bits(x))
		}
	}
	return b.String()
}

// TestPlanDriverMatchesCoroutine: each plan collective gives bit-identical
// results whether the engine's driver loop runs its steps or the rank's
// coroutine runs them through Send and Recv, at job sizes with and without
// a non-power-of-two remainder, and every pick on either path passes the
// pick check. A rank-dependent drift before each collective staggers the
// ranks' entries, so receives find their messages early, late and in
// between.
func TestPlanDriverMatchesCoroutine(t *testing.T) {
	collectives := []struct {
		name string
		run  func(c par.Comm) []float64
	}{
		{"AllreduceBytes", func(c par.Comm) []float64 { par.AllreduceBytes(c, 8192); return nil }},
		{"AlltoallBytes", func(c par.Comm) []float64 { par.AlltoallBytes(c, 2048); return nil }},
		{"Allreduce/SumOp", func(c par.Comm) []float64 {
			r := float64(c.Rank())
			return par.Allreduce(c, []float64{r + 0.1, 1 / (r + 3), -r * r}, par.SumOp)
		}},
		{"Allreduce/MaxOp", func(c par.Comm) []float64 {
			r := float64(c.Rank())
			return par.Allreduce(c, []float64{math.Sin(r), -r, r / 7}, par.MaxOp)
		}},
	}
	cl := machine.NewBX2bQuad()
	for _, coll := range collectives {
		for _, procs := range []int{1, 2, 3, 5, 6, 7, 8, 12, 64, 100} {
			t.Run(fmt.Sprintf("%s/P=%d", coll.name, procs), func(t *testing.T) {
				cfg := Config{Cluster: cl, Procs: procs, Nodes: 4}
				if procs < 4 {
					cfg.Nodes = 0
				}
				var bad []error
				run := func(path collectivePath) string {
					outs := make([][]float64, procs)
					res, err := RunCtx(collectMismatches(context.Background(), &bad), cfg, func(c par.Comm) {
						clock := c.(Clock)
						pc := path(c)
						for round := 0; round < 3; round++ {
							clock.Elapse(float64((c.Rank()*7+round*3)%5) * 1e-6)
							if out := coll.run(pc); out != nil {
								outs[c.Rank()] = append(outs[c.Rank()], out...)
							}
						}
					})
					return renderRun(res, err, outs)
				}
				want := run(inCoroutine)
				if got := run(onDriver); got != want {
					t.Fatalf("driver disagrees with coroutine\n--- driver ---\n%s\n--- coroutine ---\n%s", got, want)
				}
				requireAgreement(t, "both paths", bad)
			})
		}
	}
}

// collectiveProgram interprets a byte string as an SPMD rank program that
// interleaves the plan collectives with rank-dependent drift and a
// point-to-point ring, running its collectives on the given path. Every
// rank runs the same op list, so the program never deadlocks; Allreduce
// outputs are appended to outs[rank].
func collectiveProgram(ops []byte, path collectivePath, outs [][]float64) func(par.Comm) {
	return func(c par.Comm) {
		rank, size := c.Rank(), c.Size()
		clock := c.(Clock)
		pc := path(c)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%6, int(ops[i+1])
			switch op {
			case 0: // drift: ranks enter the next collective apart
				clock.Elapse(float64((arg+rank*5)%17) * 1e-6)
			case 1:
				par.AllreduceBytes(pc, float64(arg+1)*64)
			case 2:
				par.AlltoallBytes(pc, float64(arg+1)*16)
			case 3:
				outs[rank] = append(outs[rank], par.Allreduce(pc, []float64{float64(rank*arg) + 0.5, float64(arg) / float64(rank+1)}, par.SumOp)...)
			case 4:
				outs[rank] = append(outs[rank], par.Allreduce(pc, []float64{float64((rank * 13) % (arg + 1))}, par.MaxOp)...)
			case 5: // ring shift with payload, between collectives
				c.Send((rank+1)%size, 9, []float64{float64(rank), float64(arg)})
				c.Recv((rank+size-1)%size, 9)
			}
		}
	}
}

// runCollectiveProgram runs one interpreted program under the pick check,
// which appends its reports to *bad, and renders its outcome with
// renderRun.
func runCollectiveProgram(program []byte, path collectivePath, sanitize bool, bad *[]error) string {
	procs := 1 + int(program[0])%12
	ops := program[1:]
	if len(ops) > 2*fuzzOps {
		ops = ops[:2*fuzzOps]
	}
	cfg := Config{Cluster: machine.NewSingleNode(machine.Altix3700), Procs: procs, Sanitize: sanitize}
	outs := make([][]float64, procs)
	res, err := RunCtx(collectMismatches(context.Background(), bad), cfg, collectiveProgram(ops, path, outs))
	return renderRun(res, err, outs)
}

// FuzzCollectiveEquivalence generates programs that interleave the plan
// collectives with drift and a point-to-point ring, and requires the
// driver-run plans to agree bit for bit with the same plans run through
// Send and Recv in the ranks' coroutines, plain and sanitized, with every
// pick on both paths passing the pick check. The seeded corpus under
// testdata/fuzz replays in a plain `go test` run.
func FuzzCollectiveEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 3})                            // one rank: every plan is empty
	f.Add([]byte{4, 0, 3, 1, 7, 0, 9, 2, 5})          // 5 ranks: drift, allreduce, drift, alltoall
	f.Add([]byte{6, 3, 2, 0, 11, 4, 9, 5, 1, 3, 8})   // 7 ranks: data allreduces around a ring
	f.Add([]byte{11, 2, 0, 5, 3, 1, 200, 0, 4, 2, 1}) // 12 ranks: alltoall, ring, allreduce
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) == 0 {
			t.Skip()
		}
		for _, sanitize := range []bool{false, true} {
			var bad []error
			want := runCollectiveProgram(program, inCoroutine, sanitize, &bad)
			if got := runCollectiveProgram(program, onDriver, sanitize, &bad); got != want {
				t.Fatalf("driver disagrees with coroutine (sanitize=%v) on program %v\n--- driver ---\n%s\n--- coroutine ---\n%s",
					sanitize, program, got, want)
			}
			requireAgreement(t, fmt.Sprintf("program %v (sanitize=%v)", program, sanitize), bad)
		}
	})
}

// boomOp returns an Allreduce Op that panics on rank panicRank and sums
// elsewhere.
func boomOp(rank, panicRank int) par.Op {
	return func(dst, src []float64) {
		if rank == panicRank {
			panic("boom")
		}
		par.SumOp(dst, src)
	}
}

// cancelAfter is a context whose Err turns to context.Canceled after n
// calls; the engine checks it once per pick, so a run under it fails at a
// fixed pick.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestPlanFailures: a run that fails while the driver runs a rank's plan
// fails exactly as it does with the plan run in the rank's coroutine, and
// leaves no coroutine parked inside a plan. A panic raised by an Op the
// driver runs becomes that rank's ErrPanic, with a stack naming the Op.
func TestPlanFailures(t *testing.T) {
	single := machine.NewSingleNode(machine.Altix3700)
	cases := []struct {
		name string
		cfg  Config
		ctx  func() context.Context
		fn   func(path collectivePath) func(par.Comm)
		want ErrorKind
	}{
		{"op-panic", Config{Cluster: single, Procs: 8}, context.Background,
			func(path collectivePath) func(par.Comm) {
				return func(c par.Comm) {
					// Rank 3 enters first and waits, so its Op runs
					// wherever the plan resumes.
					if c.Rank() != 3 {
						c.(Clock).Elapse(1e-3)
					}
					par.Allreduce(path(c), []float64{1, 2}, boomOp(c.Rank(), 3))
				}
			}, ErrPanic},
		{"canceled", Config{Cluster: single, Procs: 8},
			func() context.Context { return &cancelAfter{Context: context.Background(), n: 20} },
			func(path collectivePath) func(par.Comm) {
				return func(c par.Comm) { par.AlltoallBytes(path(c), 4096) }
			}, ErrCanceled},
		{"linkdown", Config{Cluster: machine.NewBX2bQuad(), Procs: 8, Nodes: 4,
			Faults: fault.New().DegradeLink(1, 0)}, context.Background,
			func(path collectivePath) func(par.Comm) {
				return func(c par.Comm) {
					c.(Clock).Elapse(float64(c.Rank()) * 1e-6)
					par.AlltoallBytes(path(c), 4096)
				}
			}, ErrLinkDown},
		{"sanitizer-skip", Config{Cluster: single, Procs: 8, Sanitize: true}, context.Background,
			func(path collectivePath) func(par.Comm) {
				return func(c par.Comm) {
					if c.Rank() != 5 {
						par.AllreduceBytes(path(c), 1024)
					}
				}
			}, ErrSanitizer},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			var errs [2]*RunError
			for i, path := range []collectivePath{inCoroutine, onDriver} {
				_, err := RunCtx(c.ctx(), c.cfg, c.fn(path))
				if !errors.As(err, &errs[i]) || errs[i].Kind != c.want {
					t.Fatalf("err = %v, want a %s RunError", err, c.want)
				}
			}
			coro, drv := errs[0], errs[1]
			if drv.Kind == ErrPanic {
				// The panic text holds a stack; compare its parts.
				if drv.Rank != 3 || drv.PanicValue != "boom" || coro.Rank != 3 || coro.PanicValue != "boom" {
					t.Errorf("panic: driver rank %d value %v, coroutine rank %d value %v; want rank 3, \"boom\"",
						drv.Rank, drv.PanicValue, coro.Rank, coro.PanicValue)
				}
				for _, frame := range []string{"boomOp", "(*engine).drive"} {
					if !strings.Contains(drv.Stack, frame) {
						t.Errorf("driver panic stack does not name %s:\n%s", frame, drv.Stack)
					}
				}
			} else if drv.Error() != coro.Error() {
				t.Errorf("driver: %v\ncoroutine: %v", drv, coro)
			}
			awaitGoroutines(t, c.name, before)
		})
	}
}
