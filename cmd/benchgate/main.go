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
//	                 (default 0.10; allocs/op is not deterministic: the
//	                 whole-sweep benchmark's varies by about 1.5% from
//	                 run to run)
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
// Three kinds of metric are gated per benchmark: ns/op, allocs/op, and
// every other per-op unit the benchmark reports (b.ReportMetric), such as
// the sweep benchmarks' picks/op and parks/op. Those are work counts that
// only a code change can move, so they must repeat exactly: the -count
// repeats of a benchmark that disagree on one are an error, and any change
// against the baseline, in either direction, fails the gate. A change that
// moves a count on purpose records it in a new baseline (-write). allocs/op
// and the counts are gated only when both the baseline and the current run
// recorded them. Benchmarks present in the baseline but not in this run
// are skipped (they were filtered out by -bench); benchmarks new in this
// run are reported but cannot regress.
//
// Scaling across -j is not gated here: colbench (BENCHMARK.json) runs the
// real CLI at -j 1 and -j 2 and compares each change with its parent, and
// the sweep package's TestWidthClampsConcurrency pins the cap itself. The
// sweep_scaling curve older baselines carry is ignored.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
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
}

// Measure is one benchmark's recorded result.
type Measure struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Counts holds every other "/op" unit the benchmark reported, by unit.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkRealDGEMM-8   200   2969659 ns/op   529.64 MB/s   450 B/op   10 allocs/op
//
// go test prints ns/op first and then one `<value> <unit>` pair per
// further metric: MB/s under SetBytes, each b.ReportMetric unit, and B/op
// and allocs/op under -benchmem. The -8 GOMAXPROCS suffix is stripped from
// the recorded name so baselines taken on hosts with different core counts
// stay comparable.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$`)

// parseBench extracts benchmark measurements from `go test -bench` output.
// Repeated names (go test -count > 1) keep the minimum ns/op: the fastest
// run is the least contaminated by scheduler noise on a shared host, so
// the gate compares best-of-N against best-of-N. Repeats must agree on
// every count; a count that differs between them is an error.
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
		meas := Measure{NsPerOp: ns}
		pairs := strings.Fields(m[3])
		for i := 0; i+1 < len(pairs); i += 2 {
			v, err := strconv.ParseFloat(pairs[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s in %q: %v", pairs[i+1], sc.Text(), err)
			}
			switch unit := pairs[i+1]; {
			case unit == "B/op":
				meas.BytesPerOp = v
			case unit == "allocs/op":
				meas.AllocsPerOp = v
			case strings.HasSuffix(unit, "/op"):
				if meas.Counts == nil {
					meas.Counts = make(map[string]float64)
				}
				meas.Counts[unit] = v
			}
		}
		if prev, ok := out[m[1]]; ok {
			if !maps.Equal(prev.Counts, meas.Counts) {
				return nil, fmt.Errorf("%s: repeats disagree on counts: %v, then %v", m[1], prev.Counts, meas.Counts)
			}
			if prev.NsPerOp <= ns {
				continue
			}
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

// regression is one benchmark metric that worsened past its threshold, or
// a count that changed.
type regression struct {
	name      string
	metric    string // "ns/op", "allocs/op" or a count's unit
	base, cur float64
}

// compare diffs current against base and returns the over-threshold
// regressions and the changed counts, sorted by (name, metric) for stable
// output. ns/op is gated by threshold; allocs/op, which varies a little
// from run to run (GC-timed pool and map growth), by allocThreshold, and
// only when both sides recorded an allocation count (the baseline may
// predate -benchmem). A count that both sides recorded must not move in
// either direction.
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
		for unit, bv := range b.Counts {
			if cv, ok := cur.Counts[unit]; ok && cv != bv {
				regs = append(regs, regression{name, unit, bv, cv})
			}
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

// fmtMetric renders a metric value human-readably: durations for ns/op,
// plain numbers for allocs/op and the counts.
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

	var regs []regression
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
		regs = compare(base.Benchmarks, current, *threshold, *athreshold)
		if len(regs) > 0 && *input == "" {
			// A suspect on a shared host is usually load, not code:
			// re-measure the suspects once, keep the faster measurement,
			// and count only the failures that reproduce.
			names := make([]string, len(regs))
			for i, r := range regs {
				names[i] = r.name
			}
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
			regs = compare(base.Benchmarks, current, *threshold, *athreshold)
		}
		fmt.Printf("benchgate: %d benchmarks vs %s (ns %.0f%%, allocs %.0f%%)\n",
			len(current), filepath.Base(basePath), *threshold*100, *athreshold*100)
		for _, r := range regs {
			what := "COUNT CHANGED"
			if r.metric == "ns/op" || r.metric == "allocs/op" {
				what = "REGRESSION"
			}
			fmt.Printf("  %s %s %s: %s -> %s (%+.1f%%)\n",
				what, r.name, r.metric, fmtMetric(r.metric, r.base), fmtMetric(r.metric, r.cur),
				(r.cur/r.base-1)*100)
		}
	} else {
		fmt.Printf("benchgate: %d benchmarks, no baseline in %s (nothing to compare)\n", len(current), *dir)
	}

	if len(regs) > 0 && !*write {
		return fmt.Errorf("benchmark gate failed (ns > %.0f%%, allocs > %.0f%%, or a count changed)",
			*threshold*100, *athreshold*100)
	}

	if *write {
		b := Baseline{
			Date:       time.Now().Format("2006-01-02"),
			GoVersion:  runtime.Version(),
			Benchmarks: current,
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
