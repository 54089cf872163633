// Command benchgate is the benchmark regression gate: it runs the root
// bench_test.go suite (or parses a saved `go test -bench` transcript),
// records the results as a dated JSON baseline, and fails when any
// benchmark regressed more than the threshold against the most recent
// committed baseline.
//
// Usage:
//
//	benchgate [flags]
//
//	-bench regexp    benchmarks to run (default "Engine|Sweep")
//	-benchtime t     passed through to go test (default "2s")
//	-count n         runs per benchmark; the minimum ns/op is kept, which
//	                 filters scheduler noise on shared hosts (default 3)
//	-dir path        directory holding BENCH_*.json baselines (default ".")
//	-input file      parse a saved `go test -bench` transcript instead of
//	                 running go test ("-" reads stdin)
//	-threshold f     fractional ns/op regression that fails the gate
//	                 (default 0.15)
//	-athreshold f    fractional allocs/op regression that fails the gate
//	                 (default 0.10 — allocation counts are deterministic,
//	                 so the margin only covers map-growth jitter)
//	-write           write BENCH_<date>.json with this run's results
//
// Suspected regressions are re-run once (suspects only) and the faster of
// the two measurements kept, so a transient load spike on the host must
// reproduce before it can fail the gate.
//
// The baseline files sort by name, so the lexically largest BENCH_*.json
// is the comparison target. A run with no baseline present reports the
// results and exits 0 (there is nothing to regress against); `make bench`
// keeps a baseline committed so the gate always has teeth in CI.
//
// Two metrics are gated per benchmark: ns/op and — when both the baseline
// and the current run recorded it — allocs/op. Benchmarks present in the
// baseline but not in this run are skipped (they were filtered out by
// -bench); benchmarks new in this run are reported but cannot regress.
//
// The Sweep* worker benchmarks (SweepSerial, SweepJ2, SweepJ4,
// SweepParallel) additionally form the sweep scaling curve: benchgate
// prints it, records it under "sweep_scaling" in the baseline, and gates
// on parallel-beats-serial — the widest parallel sweep must be strictly
// faster than the serial one, so the contention regression that once made
// -j 8 slower than -j 1 can never silently return. This gate needs no
// baseline; it is an absolute property of the current run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Baseline is the on-disk BENCH_<date>.json schema.
type Baseline struct {
	Date       string             `json:"date"`
	GoVersion  string             `json:"go"`
	Benchmarks map[string]Measure `json:"benchmarks"`
	// Scaling is the sweep speedup curve derived from the Sweep* worker
	// benchmarks, recorded so the scaling shape is tracked in-repo.
	Scaling []ScalingPoint `json:"sweep_scaling,omitempty"`
}

// ScalingPoint is one point of the sweep's worker-scaling curve.
type ScalingPoint struct {
	Workers int     `json:"workers"`
	NsPerOp float64 `json:"ns_per_op"`
	// Speedup is serial ns/op over this point's ns/op (1.0 at workers=1).
	Speedup float64 `json:"speedup"`
}

// sweepScaling maps the root sweep benchmarks onto their -j worker counts,
// in curve order.
var sweepScaling = []struct {
	name    string
	workers int
}{
	{"BenchmarkSweepSerial", 1},
	{"BenchmarkSweepJ2", 2},
	{"BenchmarkSweepJ4", 4},
	{"BenchmarkSweepParallel", 8},
}

// Measure is one benchmark's recorded result.
type Measure struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkEngineAlltoall-8   12   102424883 ns/op   1024 B/op   3 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped from the recorded name so baselines
// taken on hosts with different core counts stay comparable.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+([\d.]+) allocs/op)?`)

// parseBench extracts benchmark measurements from `go test -bench` output.
// Repeated names (go test -count > 1) keep the minimum ns/op: the fastest
// run is the least contaminated by scheduler noise on a shared host, so
// the gate compares best-of-N against best-of-N.
func parseBench(r io.Reader) (map[string]Measure, error) {
	out := make(map[string]Measure)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %v", sc.Text(), err)
		}
		if prev, ok := out[m[1]]; ok && prev.NsPerOp <= ns {
			continue
		}
		meas := Measure{NsPerOp: ns}
		if m[3] != "" {
			meas.BytesPerOp, _ = strconv.ParseFloat(m[3], 64)
		}
		if m[4] != "" {
			meas.AllocsPerOp, _ = strconv.ParseFloat(m[4], 64)
		}
		out[m[1]] = meas
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// latestBaseline returns the lexically largest BENCH_*.json in dir, or ""
// when none exists. BENCH_<ISO-date>.json names make lexical order
// chronological.
func latestBaseline(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", nil
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

// regression is one benchmark metric that worsened past its threshold.
type regression struct {
	name      string
	metric    string // "ns/op" or "allocs/op"
	base, cur float64
}

// compare diffs current against base and returns the over-threshold
// regressions, sorted by (name, metric) for stable output. ns/op is gated
// by threshold; allocs/op — which is essentially noise-free, unlike wall
// time on a shared host — by allocThreshold, and only when both sides
// recorded an allocation count (the baseline may predate -benchmem).
func compare(base, current map[string]Measure, threshold, allocThreshold float64) []regression {
	var regs []regression
	for name, cur := range current {
		b, ok := base[name]
		if !ok {
			continue
		}
		if b.NsPerOp > 0 && cur.NsPerOp > b.NsPerOp*(1+threshold) {
			regs = append(regs, regression{name, "ns/op", b.NsPerOp, cur.NsPerOp})
		}
		if b.AllocsPerOp > 0 && cur.AllocsPerOp > b.AllocsPerOp*(1+allocThreshold) {
			regs = append(regs, regression{name, "allocs/op", b.AllocsPerOp, cur.AllocsPerOp})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].name != regs[j].name {
			return regs[i].name < regs[j].name
		}
		return regs[i].metric < regs[j].metric
	})
	return regs
}

// scalingCurve extracts the sweep worker-scaling curve from a result set:
// one point per Sweep* benchmark present, speedups relative to the serial
// point. Returns nil unless the serial benchmark and at least one other
// point were measured.
func scalingCurve(ms map[string]Measure) []ScalingPoint {
	serial, ok := ms[sweepScaling[0].name]
	if !ok || serial.NsPerOp <= 0 {
		return nil
	}
	var curve []ScalingPoint
	for _, s := range sweepScaling {
		m, ok := ms[s.name]
		if !ok || m.NsPerOp <= 0 {
			continue
		}
		curve = append(curve, ScalingPoint{
			Workers: s.workers,
			NsPerOp: m.NsPerOp,
			Speedup: serial.NsPerOp / m.NsPerOp,
		})
	}
	if len(curve) < 2 {
		return nil
	}
	return curve
}

// scalingGate enforces parallel-beats-serial: when both endpoints of the
// curve were measured, the widest parallel sweep must be strictly faster
// than the serial one. Returns "" when the gate passes or does not apply,
// else a description of the violation.
func scalingGate(ms map[string]Measure) string {
	serial, okS := ms[sweepScaling[0].name]
	last := sweepScaling[len(sweepScaling)-1]
	par, okP := ms[last.name]
	if !okS || !okP || serial.NsPerOp <= 0 || par.NsPerOp <= 0 {
		return ""
	}
	if par.NsPerOp >= serial.NsPerOp {
		return fmt.Sprintf("%s (%s) is not faster than %s (%s): the -j %d sweep lost its speedup",
			last.name, secs(par.NsPerOp), sweepScaling[0].name, secs(serial.NsPerOp), last.workers)
	}
	return ""
}

// printScaling renders the curve for humans.
func printScaling(curve []ScalingPoint) {
	if len(curve) == 0 {
		return
	}
	fmt.Printf("benchgate: sweep scaling curve:\n")
	for _, p := range curve {
		fmt.Printf("  -j %-2d %8s  speedup %.2fx\n", p.Workers, secs(p.NsPerOp), p.Speedup)
	}
}

// fmtMetric renders a metric value human-readably: durations for ns/op,
// plain counts for allocs/op.
func fmtMetric(metric string, v float64) string {
	if metric == "ns/op" {
		return secs(v)
	}
	return fmt.Sprintf("%.0f", v)
}

// secs renders nanoseconds human-readably.
func secs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

func run() error {
	bench := flag.String("bench", "Engine|Sweep", "benchmark regexp passed to go test")
	benchtime := flag.String("benchtime", "2s", "benchtime passed to go test")
	count := flag.Int("count", 3, "runs per benchmark; the gate keeps the per-benchmark minimum")
	dir := flag.String("dir", ".", "directory holding BENCH_*.json baselines")
	input := flag.String("input", "", "parse a saved transcript instead of running go test (- for stdin)")
	threshold := flag.Float64("threshold", 0.15, "fractional ns/op regression that fails the gate")
	athreshold := flag.Float64("athreshold", 0.10, "fractional allocs/op regression that fails the gate")
	write := flag.Bool("write", false, "write BENCH_<date>.json with this run's results")
	flag.Parse()

	runBench := func(re string) ([]byte, error) {
		cmd := exec.Command("go", "test", "-run", "^$",
			"-bench", re, "-benchtime", *benchtime,
			"-count", strconv.Itoa(*count), "-benchmem", ".")
		cmd.Dir = *dir
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go test -bench failed: %v", err)
		}
		os.Stdout.Write(out)
		return out, nil
	}

	var raw io.Reader
	switch *input {
	case "":
		out, err := runBench(*bench)
		if err != nil {
			return err
		}
		raw = strings.NewReader(string(out))
	case "-":
		raw = os.Stdin
	default:
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		raw = f
	}

	current, err := parseBench(raw)
	if err != nil {
		return err
	}
	if len(current) == 0 {
		return fmt.Errorf("no benchmark results found (wrong -bench regexp?)")
	}

	// rerunSuspects re-measures the named benchmarks once and merges the
	// faster measurement into current: a suspect failure on a shared host
	// is usually load, not code, so only failures that reproduce count.
	rerunSuspects := func(names []string) error {
		sort.Strings(names)
		names = slices.Compact(names)
		fmt.Printf("benchgate: %d suspect(s), re-running to confirm: %s\n",
			len(names), strings.Join(names, " "))
		out, err := runBench("^(" + strings.Join(names, "|") + ")$")
		if err != nil {
			return err
		}
		rerun, err := parseBench(strings.NewReader(string(out)))
		if err != nil {
			return err
		}
		for name, m := range rerun {
			if cur, ok := current[name]; !ok || m.NsPerOp < cur.NsPerOp {
				current[name] = m
			}
		}
		return nil
	}

	gateFailed := false
	basePath, err := latestBaseline(*dir)
	if err != nil {
		return err
	}
	if basePath != "" {
		data, err := os.ReadFile(basePath)
		if err != nil {
			return err
		}
		var base Baseline
		if err := json.Unmarshal(data, &base); err != nil {
			return fmt.Errorf("%s: %v", basePath, err)
		}
		regs := compare(base.Benchmarks, current, *threshold, *athreshold)
		if len(regs) > 0 && *input == "" {
			names := make([]string, len(regs))
			for i, r := range regs {
				names[i] = r.name
			}
			if err := rerunSuspects(names); err != nil {
				return err
			}
			regs = compare(base.Benchmarks, current, *threshold, *athreshold)
		}
		fmt.Printf("benchgate: %d benchmarks vs %s (ns %.0f%%, allocs %.0f%%)\n",
			len(current), filepath.Base(basePath), *threshold*100, *athreshold*100)
		for _, r := range regs {
			fmt.Printf("  REGRESSION %s %s: %s -> %s (%+.1f%%)\n",
				r.name, r.metric, fmtMetric(r.metric, r.base), fmtMetric(r.metric, r.cur),
				(r.cur/r.base-1)*100)
		}
		if len(regs) > 0 {
			gateFailed = true
		}
	} else {
		fmt.Printf("benchgate: %d benchmarks, no baseline in %s (nothing to compare)\n", len(current), *dir)
	}

	// The scaling gate needs no baseline: parallel-beats-serial is an
	// absolute property of this run. Like regressions, a first failure is
	// only a suspect — both endpoints are re-measured before it sticks.
	if msg := scalingGate(current); msg != "" && *input == "" {
		if err := rerunSuspects([]string{sweepScaling[0].name, sweepScaling[len(sweepScaling)-1].name}); err != nil {
			return err
		}
	}
	printScaling(scalingCurve(current))
	if msg := scalingGate(current); msg != "" {
		fmt.Printf("  SCALING %s\n", msg)
		gateFailed = true
	}

	if gateFailed && !*write {
		return fmt.Errorf("benchmark gate failed (ns > %.0f%%, allocs > %.0f%%, or lost parallel speedup)",
			*threshold*100, *athreshold*100)
	}

	if *write {
		b := Baseline{
			Date:       time.Now().Format("2006-01-02"),
			GoVersion:  runtime.Version(),
			Benchmarks: current,
			Scaling:    scalingCurve(current),
		}
		data, err := json.MarshalIndent(b, "", "\t")
		if err != nil {
			return err
		}
		path := filepath.Join(*dir, "BENCH_"+b.Date+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchgate: wrote %s\n", path)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
