// Command colbench is the repository's end-to-end benchmark. It times the
// built columbia CLI on one workload in a closed loop, checks every output,
// and prints the end-to-end metrics; with -trace 1 it instead runs the same
// workload in-process through the public API and times the calls into each
// layer. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md explains the workloads
// and metrics; run.sh builds the CLI and this command, then runs it.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"columbia/internal/core"
	"columbia/internal/dist"
	"columbia/internal/sweep"
)

const (
	// setupPerRun is how many set-up invocations precede each timed one.
	// A set-up takes milliseconds and its time drifts with the host from
	// one second to the next, so the samples are spread over the whole run.
	setupPerRun = 8
	// minRuns is the fewest timed invocations a run makes, however short
	// its time budget.
	minRuns = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bench is one benchmark run: a workload, its seed and time budget, the
// check its outputs must pass, and the invocation tally.
type bench struct {
	w       workload
	seed    uint64
	budget  time.Duration
	root    string
	cli     string
	check   func([]byte) error
	listIDs []string

	attempted, failed int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("colbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-1core, paper-2core or ensemble-workers")
	seed := fs.Uint64("seed", 1, "workload seed; the noise ensemble's noise seed")
	seconds := fs.Int("seconds", 30, "seconds to keep starting invocations")
	traceMode := fs.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end loop")
	root := fs.String("root", ".", "root of the checkout to benchmark")
	cli := fs.String("cli", "", "built columbia binary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*cli == "" || *seconds < 1 || *traceMode < 0 || *traceMode > 1) {
		err = errors.New("need -cli, -seconds >= 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "colbench:", err)
		return 2
	}
	if err := becomeSubreaper(); err != nil {
		fmt.Fprintln(stderr, "colbench:", err)
		return 1
	}
	host := startHost(*root)
	if w.parallelism() > host.nproc {
		fmt.Fprintf(stdout, "colbench: %s not measurable: it runs %d lanes or workers on nproc=%d\n",
			w.name, w.parallelism(), host.nproc)
		return 3
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, root: *root, cli: *cli}
	if err := b.prepare(ctx); err != nil {
		fmt.Fprintln(stderr, "colbench:", err)
		return 1
	}
	var report strings.Builder
	mode := "untraced"
	if *traceMode == 1 {
		mode = "traced"
	}
	fmt.Fprintf(&report, "colbench: %s (%s, seed %d, %d s): GOMAXPROCS=%d columbia %s\n",
		w.name, mode, b.seed, *seconds, w.gomaxprocs, strings.Join(w.runArgs(b.seed), " "))
	var metrics []namedMetric
	if *traceMode == 1 {
		var tr tracedRun
		tr, err = b.traced(ctx, &report)
		host.finish()
		tr.steal = host.steal
		metrics = layerMetrics(tr)
		printLayers(&report, metrics)
	} else {
		metrics = b.untraced(ctx, &report)
		host.finish()
	}
	if err != nil {
		fmt.Fprintln(stderr, "colbench:", err)
		return 1
	}
	fmt.Fprintf(&report, "invocations: attempted %d, failed %d\n", b.attempted, b.failed)
	host.print(&report)
	line, err := resultJSON(b.attempted, b.failed, metrics)
	if err != nil {
		fmt.Fprintln(stderr, "colbench:", err)
		return 1
	}
	fmt.Fprint(stdout, report.String())
	fmt.Fprintln(stdout, line)
	return 0
}

// prepare builds the output check: golden files for the paper workloads,
// a -j 1 in-process reference run (not timed) for the noise ensemble.
func (b *bench) prepare(ctx context.Context) error {
	for _, e := range core.Experiments() {
		b.listIDs = append(b.listIDs, e.ID)
	}
	if b.w.replicas == 0 {
		golden, err := loadGolden(b.root, b.listIDs)
		if err != nil {
			return err
		}
		b.check = func(out []byte) error { return checkGolden(out, golden) }
		return nil
	}
	inv := invoke(ctx, b.cli, b.w.gomaxprocs, b.w.referenceArgs(b.seed))
	// The reference itself must exit 0, fail no point and hold ± cells.
	if err := verify(inv, func(out []byte) error { return checkReference(out, out) }); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	b.check = func(out []byte) error { return checkReference(out, inv.stdout) }
	return nil
}

// checkList requires `columbia list` to name every experiment in order.
func (b *bench) checkList(out []byte) error {
	lines := dataRows(string(out))
	if len(lines) != len(b.listIDs) {
		return fmt.Errorf("list: %d experiments, want %d", len(lines), len(b.listIDs))
	}
	for i, l := range lines {
		if f := strings.Fields(l); len(f) == 0 || f[0] != b.listIDs[i] {
			return fmt.Errorf("list: line %d is %q, want experiment %s", i+1, l, b.listIDs[i])
		}
	}
	return nil
}

// invoke runs and checks one CLI invocation, counting it; ok reports
// whether it passed.
func (b *bench) invoke(ctx context.Context, args []string, check func([]byte) error) (inv invocation, ok bool) {
	inv = invoke(ctx, b.cli, b.w.gomaxprocs, args)
	return inv, b.tally(verify(inv, check))
}

// tally counts one attempt and reports whether err is nil.
func (b *bench) tally(err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "colbench: %s: attempt %d failed: %v\n", b.w.name, b.attempted, err)
		return false
	}
	return true
}

// more reports whether the closed loop starts another invocation: always
// for the first minRuns, then while one more invocation as long as the
// last still fits in the time budget.
func (b *bench) more(n int, start time.Time, last time.Duration) bool {
	return n < minRuns || time.Since(start)+last <= b.budget
}

// untraced times the workload in a closed loop, each invocation preceded
// by set-up invocations, and returns the end-to-end metrics.
func (b *bench) untraced(ctx context.Context, report *strings.Builder) []namedMetric {
	var setup, wall, rss []float64
	start := time.Now()
	var last time.Duration
	for n := 0; b.more(n, start, last) && ctx.Err() == nil; n++ {
		for i := 0; i < setupPerRun; i++ {
			if inv, ok := b.invoke(ctx, b.w.setupArgs(b.seed), b.checkList); ok {
				setup = append(setup, inv.wall.Seconds())
			}
		}
		inv, ok := b.invoke(ctx, b.w.runArgs(b.seed), b.check)
		last = inv.wall
		if ok {
			wall = append(wall, inv.wall.Seconds())
			rss = append(rss, float64(inv.maxRSS)/1024)
		}
	}
	return e2eMetrics(report, wall, setup, rss)
}

// e2eMetrics prints each end-to-end metric's median, tail and sample
// count, and returns the medians.
func e2eMetrics(report *strings.Builder, wall, setup, rss []float64) []namedMetric {
	rows := []struct {
		name, unit string
		s          summary
	}{
		{"wall_s", "s", summarize(wall)},
		{"setup_s", "s", summarize(setup)},
		{"peak_rss_mb", "MB", summarize(rss)},
	}
	fmt.Fprintf(report, "%-12s %-5s %12s %22s %4s\n", "metric", "unit", "median", "tail", "n")
	var out []namedMetric
	for _, r := range rows {
		tail := "- (needs n >= 20)"
		if r.s.TailPct > 0 {
			tail = fmt.Sprintf("p%g %.6g", r.s.TailPct, r.s.Tail)
		}
		fmt.Fprintf(report, "%-12s %-5s %12.6g %22s %4d\n", r.name, r.unit, r.s.P50, tail, r.s.N)
		out = append(out, namedMetric{r.name, r.unit, r.s.P50})
	}
	return out
}

// traced alternates an untraced CLI invocation with traced in-process
// passes of the same workload until the time budget is spent, then writes
// the spans as a Chrome trace.
func (b *bench) traced(ctx context.Context, report *strings.Builder) (tracedRun, error) {
	rec := newRecorder()
	r := tracedRun{lanes: b.w.lanes(), workers: b.w.workers}
	prev := runtime.GOMAXPROCS(b.w.gomaxprocs)
	defer runtime.GOMAXPROCS(prev)
	start := time.Now()
	var last time.Duration
	for iter := 0; b.more(iter, start, last) && ctx.Err() == nil; iter++ {
		t0 := time.Now()
		inv, ok := b.invoke(ctx, b.w.runArgs(b.seed), b.check)
		if !ok {
			continue
		}
		r.untraced = append(r.untraced, inv.wall.Seconds())
		rt0 := readRuntime()
		lanes := tracer{rec: rec, iter: iter, pass: passLanes}
		out, wall, err := pass(ctx, b.w, b.seed, newLaneDispatcher(lanes, b.w.lanes()), lanes)
		if err != nil {
			return r, err
		}
		b.tally(b.check([]byte(out)))
		r.retries += sweep.Default().Stats().Retries
		if b.w.workers > 0 {
			var st dist.Stats
			out, wall, st, err = fleetPass(ctx, b.w, b.seed, b.cli, tracer{rec: rec, iter: iter, pass: passWorkers})
			if err != nil {
				return r, err
			}
			b.tally(b.check([]byte(out)))
			r.fleet.Crashes += st.Crashes
			r.fleet.Restarts += st.Restarts
		}
		r.traced = append(r.traced, wall.Seconds())
		r.rt = r.rt.add(readRuntime().sub(rt0))
		last = time.Since(t0)
	}
	r.spans = rec.all()
	dir := filepath.Join(b.root, ".bench_build", "trace")
	path := filepath.Join(dir, b.w.name+".json")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return r, err
	}
	if err := writeChromeTrace(path, r.spans); err != nil {
		return r, fmt.Errorf("chrome trace: %w", err)
	}
	fmt.Fprintf(report, "trace: %d iterations, %d spans, Chrome trace-event JSON in %s\n", len(r.traced), len(r.spans), path)
	fmt.Fprintf(report, "trace: wall of each traced pass %.4g s, of each untraced invocation %.4g s\n", r.traced, r.untraced)
	return r, nil
}

func printLayers(report *strings.Builder, ms []namedMetric) {
	fmt.Fprintf(report, "%-26s %-6s %14s\n", "metric", "unit", "value")
	for _, m := range ms {
		fmt.Fprintf(report, "%-26s %-6s %14.6g\n", m.name, m.unit, m.value)
	}
}

// resultJSON is the final output line.
func resultJSON(attempted, failed int, ms []namedMetric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range ms {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(res)
	return string(b), err
}
