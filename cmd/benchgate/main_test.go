package main

import (
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: columbia
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkSweepSerial-8               	       1	5981234567 ns/op	   1208596 parks/op	   3606564 picks/op	120403600 B/op	  545853 allocs/op
BenchmarkEngineAlltoall-8            	      12	 102424883 ns/op	 4096 B/op	       3 allocs/op
BenchmarkEngineAlltoallGoroutine-8   	      10	 121781836 ns/op
BenchmarkEngine2048Ranks-8           	      25	  45600000 ns/op
BenchmarkRealDGEMM-8                 	     200	   2969659 ns/op	 529.64 MB/s	     450 B/op	      10 allocs/op
some unrelated line
PASS
ok  	columbia	30.910s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5: %v", len(got), got)
	}
	// The -8 GOMAXPROCS suffix must be stripped.
	m, ok := got["BenchmarkEngineAlltoall"]
	if !ok {
		t.Fatalf("BenchmarkEngineAlltoall missing (suffix not stripped?): %v", got)
	}
	if m.NsPerOp != 102424883 {
		t.Errorf("ns/op = %v, want 102424883", m.NsPerOp)
	}
	if m.BytesPerOp != 4096 || m.AllocsPerOp != 3 {
		t.Errorf("benchmem columns = %v B/op %v allocs/op, want 4096/3", m.BytesPerOp, m.AllocsPerOp)
	}
	sweep := got["BenchmarkSweepSerial"]
	if sweep.NsPerOp != 5981234567 {
		t.Errorf("large ns/op parsed as %v", sweep.NsPerOp)
	}
	// Reported per-op units are recorded as counts, apart from the
	// benchmem columns.
	if want := map[string]float64{"picks/op": 3606564, "parks/op": 1208596}; !maps.Equal(sweep.Counts, want) || sweep.AllocsPerOp != 545853 {
		t.Errorf("sweep line parsed as %+v, want counts %v and 545853 allocs/op", sweep, want)
	}
	// An extra metric (MB/s from SetBytes) between ns/op and B/op must not
	// hide the benchmem columns, and is not a count.
	if m := got["BenchmarkRealDGEMM"]; m.NsPerOp != 2969659 || m.BytesPerOp != 450 || m.AllocsPerOp != 10 || m.Counts != nil {
		t.Errorf("DGEMM line parsed as %+v, want 2969659 ns/op, 450 B/op, 10 allocs/op, no counts", m)
	}
}

// TestParseBenchRepeatsAgreeOnCounts: the -count repeats of a benchmark
// must report the same counts; ns/op may differ.
func TestParseBenchRepeatsAgreeOnCounts(t *testing.T) {
	for _, c := range []struct {
		name, second string
		ok           bool
	}{
		{"same counts", "BenchmarkX-2 1 90 ns/op 7 picks/op 3 parks/op", true},
		{"picks differ", "BenchmarkX-2 1 90 ns/op 8 picks/op 3 parks/op", false},
		{"a count missing", "BenchmarkX-2 1 90 ns/op 7 picks/op", false},
		{"a count added", "BenchmarkX-2 1 90 ns/op 7 picks/op 3 parks/op 1 sends/op", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseBench(strings.NewReader("BenchmarkX-2 1 100 ns/op 7 picks/op 3 parks/op\n" + c.second + "\n"))
			switch {
			case c.ok && err != nil:
				t.Fatalf("agreeing repeats rejected: %v", err)
			case c.ok && got["BenchmarkX"].NsPerOp != 90:
				t.Errorf("ns/op = %v, want the minimum 90", got["BenchmarkX"].NsPerOp)
			case !c.ok && err == nil:
				t.Fatalf("repeats that disagree on a count parsed as %+v, want an error", got)
			}
		})
	}
}

func TestParseBenchKeepsMinimum(t *testing.T) {
	const repeated = `BenchmarkX-8   1   300 ns/op
BenchmarkX-8   1   100 ns/op	 64 B/op	 2 allocs/op
BenchmarkX-8   1   200 ns/op
`
	got, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	m := got["BenchmarkX"]
	if m.NsPerOp != 100 {
		t.Errorf("ns/op = %v, want the minimum 100 across -count runs", m.NsPerOp)
	}
	if m.BytesPerOp != 64 || m.AllocsPerOp != 2 {
		t.Errorf("benchmem columns must come from the minimum run: got %v B/op %v allocs/op", m.BytesPerOp, m.AllocsPerOp)
	}
}

func TestCompare(t *testing.T) {
	base := map[string]Measure{
		"A": {NsPerOp: 100},
		"B": {NsPerOp: 100},
		"C": {NsPerOp: 100},
		"D": {NsPerOp: 0}, // degenerate baseline: never flags
	}
	current := map[string]Measure{
		"A": {NsPerOp: 114}, // +14%: under the 15% threshold
		"B": {NsPerOp: 116}, // +16%: regression
		"C": {NsPerOp: 80},  // improvement
		"D": {NsPerOp: 50},
		"E": {NsPerOp: 1e9}, // new benchmark: no baseline, cannot regress
	}
	regs := compare(base, current, 0.15, 0.10)
	if len(regs) != 1 || regs[0].name != "B" {
		t.Fatalf("regressions = %+v, want exactly B", regs)
	}
	if regs[0].base != 100 || regs[0].cur != 116 || regs[0].metric != "ns/op" {
		t.Errorf("B recorded as %v -> %v (%s), want 100 -> 116 (ns/op)", regs[0].base, regs[0].cur, regs[0].metric)
	}
}

func TestCompareGatesAllocs(t *testing.T) {
	base := map[string]Measure{
		"A": {NsPerOp: 100, AllocsPerOp: 1000},
		"B": {NsPerOp: 100, AllocsPerOp: 1000},
		"C": {NsPerOp: 100}, // baseline predates -benchmem: allocs not comparable
	}
	current := map[string]Measure{
		"A": {NsPerOp: 130, AllocsPerOp: 1200}, // both metrics blown
		"B": {NsPerOp: 90, AllocsPerOp: 1050},  // faster, allocs within the 10% margin
		"C": {NsPerOp: 100, AllocsPerOp: 9999},
	}
	regs := compare(base, current, 0.15, 0.10)
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v, want A's two metrics", regs)
	}
	for _, r := range regs {
		if r.name != "A" {
			t.Errorf("unexpected regression %+v", r)
		}
	}
	if regs[0].metric != "allocs/op" || regs[1].metric != "ns/op" {
		t.Errorf("metrics ordered %s, %s; want allocs/op then ns/op", regs[0].metric, regs[1].metric)
	}
}

func TestCompareAllocsOnlyRegression(t *testing.T) {
	base := map[string]Measure{"A": {NsPerOp: 100, AllocsPerOp: 1000}}
	current := map[string]Measure{"A": {NsPerOp: 90, AllocsPerOp: 2000}}
	regs := compare(base, current, 0.15, 0.10)
	if len(regs) != 1 || regs[0].metric != "allocs/op" || regs[0].cur != 2000 {
		t.Fatalf("got %+v, want one allocs/op regression despite the ns/op improvement", regs)
	}
}

// TestCompareGatesCounts: a count both sides recorded fails the gate when
// it moves either way, whatever ns/op does; a count only one side has
// cannot fail it.
func TestCompareGatesCounts(t *testing.T) {
	base := map[string]Measure{"A": {NsPerOp: 100, Counts: map[string]float64{"picks/op": 1000, "parks/op": 400}}}
	for _, c := range []struct {
		name   string
		counts map[string]float64
		want   []string // the changed units
	}{
		{"equal", map[string]float64{"picks/op": 1000, "parks/op": 400}, nil},
		{"one more pick", map[string]float64{"picks/op": 1001, "parks/op": 400}, []string{"picks/op"}},
		{"one park fewer", map[string]float64{"picks/op": 1000, "parks/op": 399}, []string{"parks/op"}},
		{"both moved", map[string]float64{"picks/op": 2000, "parks/op": 1}, []string{"parks/op", "picks/op"}},
		{"count not reported", map[string]float64{"picks/op": 1000}, nil},
		{"new count", map[string]float64{"picks/op": 1000, "parks/op": 400, "sends/op": 5}, nil},
		{"no counts", nil, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			regs := compare(base, map[string]Measure{"A": {NsPerOp: 50, Counts: c.counts}}, 0.15, 0.10)
			var got []string
			for _, r := range regs {
				got = append(got, r.metric)
				if r.base != base["A"].Counts[r.metric] || r.cur != c.counts[r.metric] {
					t.Errorf("%s recorded as %v -> %v", r.metric, r.base, r.cur)
				}
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("changed counts = %v, want %v", got, c.want)
			}
		})
	}
	// A baseline that predates counts gates none.
	if regs := compare(map[string]Measure{"A": {NsPerOp: 100}}, map[string]Measure{"A": {NsPerOp: 100, Counts: map[string]float64{"picks/op": 1}}}, 0.15, 0.10); len(regs) != 0 {
		t.Errorf("a baseline without counts flagged %+v", regs)
	}
}

func TestCompareSorted(t *testing.T) {
	base := map[string]Measure{"Z": {NsPerOp: 1}, "A": {NsPerOp: 1}, "M": {NsPerOp: 1}}
	current := map[string]Measure{"Z": {NsPerOp: 10}, "A": {NsPerOp: 10}, "M": {NsPerOp: 10}}
	regs := compare(base, current, 0.15, 0.10)
	if len(regs) != 3 || regs[0].name != "A" || regs[1].name != "M" || regs[2].name != "Z" {
		t.Fatalf("regressions not name-sorted: %+v", regs)
	}
}

func TestLatestBaseline(t *testing.T) {
	dir := t.TempDir()
	if got, err := latestBaseline(dir); err != nil || got != "" {
		t.Fatalf("empty dir: got %q, %v; want \"\", nil", got, err)
	}
	for _, name := range []string{"BENCH_2026-01-15.json", "BENCH_2026-08-05.json", "BENCH_2025-12-31.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := latestBaseline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_2026-08-05.json" {
		t.Errorf("latest = %s, want BENCH_2026-08-05.json", filepath.Base(got))
	}
}
