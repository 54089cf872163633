// Command columbia regenerates the tables and figures of "An
// Application-Based Performance Characterization of the Columbia
// Supercluster" (SC 2005) on the simulated machine.
//
// Usage:
//
//	columbia list             list experiment IDs
//	columbia run <id>...      run selected experiments (e.g. fig5 table2)
//	columbia all              run everything in paper order
//	columbia -csv run <id>    emit CSV instead of aligned tables
//	columbia -plot run <id>   append ASCII plots to figure tables
//	columbia -j 8 all         run sweep points on 8 affinity lanes
//	columbia -workers 4 all   run sweep points on 4 supervised worker processes
//
// Robustness flags (see DESIGN.md, "Fault injection" and "Worker protocol
// and failure model"):
//
//	columbia -faults nodedown=0 run stride     simulate with node 0 lost
//	columbia -timeout 30s all                  bound each sweep point's wall clock
//	columbia -max-retries 2 -faults ... all    retry retryable failures
//	columbia -commsan run fig8                 run under the communication sanitizer
//	columbia -workers 2 -faults wkill=3 all    chaos: each worker dies after 3 points
//
// Performance-noise ensembles (see DESIGN.md, "Performance noise and
// replica ensembles"):
//
//	columbia -noise jitter=exp:0.05 run fig7            seeded stochastic compute jitter
//	columbia -noise daemon=0.01:0.2:3:2 run fig7        periodic daemon interference on CPUs 0-1
//	columbia -noise jitter=uniform:0.1,seed=7 -replicas 5 run fig7
//	                                                    5-replica ensemble; cells become min/avg/max ±spread
//
// A failed point degrades to an annotated "!kind" cell instead of aborting
// the run; if any point failed, the command prints a summary to stderr and
// exits 1. Output is byte-identical for every -j and -workers value:
// experiments render concurrently, but the CLI prints them in submission
// order, and worker crashes are retried transparently (a point that kills
// several workers in a row is quarantined as a "!workercrash" cell).
// SIGINT/SIGTERM cancel the run: in-flight points degrade to "!canceled"
// cells, workers are drained, and the command exits 1 with a partial-output
// notice.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"columbia/internal/core"
	"columbia/internal/dist"
	"columbia/internal/fault"
	"columbia/internal/noise"
	"columbia/internal/report"
	"columbia/internal/sweep"
)

func main() {
	if os.Getenv("COLUMBIA_WORKER") == "1" {
		os.Exit(workerMain())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// workerHeartbeat is the liveness interval workers announce in the
// handshake; the supervisor kills a worker silent for 4x this long.
const workerHeartbeat = time.Second

// workerMain is the worker-process entry: serve sweep points over
// stdin/stdout until shutdown. A chaos-scheduled death exits silently —
// from the outside it must look exactly like a real crash.
func workerMain() int {
	err := dist.ServeWorker(os.Stdin, os.Stdout, workerSetup)
	switch {
	case err == nil:
		return 0
	case errors.Is(err, dist.ErrChaosKill):
		return 3
	default:
		fmt.Fprintln(os.Stderr, "columbia worker:", err)
		return 1
	}
}

// workerSetup applies the handshake's run configuration to this process's
// globals — the same setters the supervisor-side CLI flags use — so the
// worker stamps identical fingerprints into identical cache keys.
func workerSetup(h dist.Hello) (dist.Executor, error) {
	if h.Faults != "" {
		plan, err := fault.Parse(h.Faults)
		if err != nil {
			return nil, err
		}
		core.SetFaultPlan(plan)
	}
	core.SetSanitize(h.Commsan)
	if h.Noise != "" {
		spec, err := noise.Parse(h.Noise)
		if err != nil {
			return nil, err
		}
		core.SetNoise(spec)
	}
	return core.ExecutePoint, nil
}

// workerProc adapts an os/exec worker to dist.Proc: Write feeds its stdin,
// Read drains its stdout, Kill terminates and reaps it.
type workerProc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout io.ReadCloser
}

func (p *workerProc) Read(b []byte) (int, error)  { return p.stdout.Read(b) }
func (p *workerProc) Write(b []byte) (int, error) { return p.stdin.Write(b) }

func (p *workerProc) Kill() error {
	p.stdin.Close()
	_ = p.cmd.Process.Kill()
	err := p.cmd.Wait()
	p.stdout.Close()
	return err
}

// spawnWorker re-executes this binary in worker mode. The COLUMBIA_WORKER
// variable, not a flag, selects the mode so the test binary can intercept
// it in TestMain before the test framework parses anything.
func spawnWorker(exe string, stderr io.Writer) (dist.Proc, error) {
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "COLUMBIA_WORKER=1")
	cmd.Stderr = stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		stdin.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		stdin.Close()
		stdout.Close()
		return nil, err
	}
	return &workerProc{cmd: cmd, stdin: stdin, stdout: stdout}, nil
}

// rendered is one experiment's output plus its degraded-cell accounting.
type rendered struct {
	text     string
	failures int
	kinds    map[string]int
}

// run is the testable entry point: it parses argv, configures the sweep
// pool, fault plan and (optionally) the worker fleet, executes the
// requested experiments and returns the process exit code (0 healthy, 1 on
// any failed point, bad ID or interruption, 2 usage). Canceling ctx —
// main wires SIGINT/SIGTERM to it — drains the run: started points fail as
// "!canceled" cells, workers shut down, partial output is flushed.
func run(ctx context.Context, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("columbia", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		csvOut     = fs.Bool("csv", false, "emit CSV")
		plotOut    = fs.Bool("plot", false, "append ASCII plots")
		jobs       = fs.Int("j", 0, "sweep affinity lanes (0 = GOMAXPROCS); concurrent points are additionally clamped to GOMAXPROCS")
		workers    = fs.Int("workers", 0, "supervised worker processes for sweep points (0 = in-process); crashes are retried, crash-looping points degrade to !workercrash cells")
		timeout    = fs.Duration("timeout", 0, "wall-clock budget per sweep point (0 = none)")
		maxRetries = fs.Int("max-retries", 0, "retries for retryable point failures (timeouts, transient faults, worker crashes)")
		faultSpec  = fs.String("faults", "", "comma-separated fault plan, e.g. nodedown=0,slownode=1:1.5,wkill=2 (see DESIGN.md)")
		commsan    = fs.Bool("commsan", false, "run every simulation under the communication sanitizer (races, unmatched traffic, collective mismatches fail as !sanitizer cells)")
		noiseSpec  = fs.String("noise", "", "comma-separated performance-noise spec, e.g. jitter=exp:0.05,daemon=0.01:0.2:3:2,seed=7 (see DESIGN.md §13)")
		replicaCnt = fs.Int("replicas", 1, "noise-ensemble size: run every sweep point N times with distinct replica indices and report min/avg/max cells (needs -noise to draw distinct samples)")
	)
	usage := func() int {
		fmt.Fprintln(stderr, "usage: columbia [-csv] [-plot] [-j N] [-workers N] [-timeout D] [-max-retries N] [-faults SPEC] [-noise SPEC] [-replicas N] [-commsan] {list | all | run <id>...}")
		return 2
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	for _, c := range []struct {
		flag     string
		negative bool
	}{
		{"j", *jobs < 0},
		{"workers", *workers < 0},
		{"max-retries", *maxRetries < 0},
		{"timeout", *timeout < 0},
	} {
		if c.negative {
			fmt.Fprintf(stderr, "columbia: -%s must be non-negative\n", c.flag)
			return 2
		}
	}
	sweep.Configure(ctx, sweep.Options{
		Workers:    *jobs,
		Timeout:    *timeout,
		MaxRetries: *maxRetries,
	})
	faultsFP := ""
	if *faultSpec != "" {
		plan, err := fault.Parse(*faultSpec)
		if err != nil {
			fmt.Fprintln(stderr, "columbia:", err)
			return 2
		}
		core.SetFaultPlan(plan)
		defer core.SetFaultPlan(nil)
		faultsFP = plan.Fingerprint()
	}
	if *commsan {
		core.SetSanitize(true)
		defer core.SetSanitize(false)
	}
	noiseFP := ""
	if *noiseSpec != "" {
		spec, err := noise.Parse(*noiseSpec)
		if err != nil {
			fmt.Fprintln(stderr, "columbia:", err)
			return 2
		}
		core.SetNoise(spec)
		defer core.SetNoise(nil)
		noiseFP = spec.Fingerprint()
	}
	if *replicaCnt < 1 {
		fmt.Fprintln(stderr, "columbia: -replicas must be at least 1")
		return 2
	}
	if *replicaCnt > 1 {
		core.SetReplicas(*replicaCnt)
		defer core.SetReplicas(0)
	}
	var fleet *dist.Supervisor
	if *workers > 0 {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(stderr, "columbia:", err)
			return 2
		}
		fleet, err = dist.New(dist.Config{
			Workers: *workers,
			Spawn:   func() (dist.Proc, error) { return spawnWorker(exe, stderr) },
			Hello: dist.Hello{
				Faults:    faultsFP,
				Commsan:   *commsan,
				Noise:     noiseFP,
				Timeout:   *timeout,
				Heartbeat: workerHeartbeat,
			},
		})
		if err != nil {
			fmt.Fprintln(stderr, "columbia:", err)
			return 2
		}
		core.SetDispatcher(fleet)
		defer func() {
			core.SetDispatcher(nil)
			fleet.Close()
		}()
	}
	emit := func(b *strings.Builder, t *report.Table) {
		if *csvOut {
			b.WriteString(t.CSV())
			return
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
		if *plotOut {
			b.WriteString(t.Plot(10))
			b.WriteByte('\n')
		}
	}
	// renderAsync runs an experiment on a coordinator goroutine and returns
	// its full rendered output. Concurrency lives in the sweep points the
	// experiment submits; rendering to a string keeps stdout in paper order.
	renderAsync := func(e core.Experiment) sweep.Future[rendered] {
		return sweep.Go(sweep.Default(), func() rendered {
			var b strings.Builder
			fmt.Fprintf(&b, "== %s: %s ==\n", e.ID, e.Title)
			fmt.Fprintf(&b, "paper: %s\n\n", e.Paper)
			r := rendered{}
			for _, t := range e.Run() {
				emit(&b, t)
				r.failures += t.Failures
				for k, n := range t.FailKinds {
					if r.kinds == nil {
						r.kinds = make(map[string]int)
					}
					r.kinds[k] += n
				}
			}
			r.text = b.String()
			return r
		})
	}
	failures := 0
	failKinds := map[string]int{}
	flush := func(futs []sweep.Future[rendered]) {
		for _, f := range futs {
			r := f.Wait()
			fmt.Fprint(stdout, r.text)
			failures += r.failures
			for k, n := range r.kinds {
				failKinds[k] += n
			}
		}
	}
	// finish prints the end-of-run failure summary: degraded-cell counts by
	// kind, point retries, and worker-fleet crash handling. Healthy quiet
	// runs print nothing and exit 0.
	finish := func() int {
		interrupted := ctx.Err() != nil
		if failures > 0 {
			fmt.Fprintf(stderr, "columbia: %d point(s) failed; see FAILED notes above\n", failures)
			kinds := make([]string, 0, len(failKinds))
			for k := range failKinds {
				kinds = append(kinds, k)
			}
			sort.Strings(kinds)
			parts := make([]string, len(kinds))
			for i, k := range kinds {
				parts[i] = fmt.Sprintf("%s=%d", k, failKinds[k])
			}
			fmt.Fprintf(stderr, "columbia:   failures by kind: %s\n", strings.Join(parts, " "))
		}
		if r := sweep.Default().Stats().Retries; r > 0 {
			fmt.Fprintf(stderr, "columbia:   point retries: %d\n", r)
		}
		if fleet != nil {
			if st := fleet.Stats(); st.Crashes > 0 || st.Restarts > 0 || st.Quarantined > 0 {
				fmt.Fprintf(stderr, "columbia:   worker fleet: %d crash(es), %d restart(s), %d point(s) quarantined\n",
					st.Crashes, st.Restarts, st.Quarantined)
			}
		}
		if interrupted {
			fmt.Fprintln(stderr, "columbia: interrupted; output above contains partial results")
		}
		if failures > 0 || interrupted {
			return 1
		}
		return 0
	}
	args := fs.Args()
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "list":
		for _, e := range core.Experiments() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return 0
	case "all":
		var futs []sweep.Future[rendered]
		for _, e := range core.Experiments() {
			futs = append(futs, renderAsync(e))
		}
		flush(futs)
		return finish()
	case "run":
		if len(args) < 2 {
			return usage()
		}
		// Lookups stay lazy so a bad ID after valid ones still prints the
		// earlier experiments first, exactly as a sequential loop would.
		var futs []sweep.Future[rendered]
		for _, id := range args[1:] {
			e, err := core.Lookup(id)
			if err != nil {
				flush(futs)
				fmt.Fprintln(stderr, err)
				return 1
			}
			futs = append(futs, renderAsync(e))
		}
		flush(futs)
		return finish()
	default:
		return usage()
	}
}
