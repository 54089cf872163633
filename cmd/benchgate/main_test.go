package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: columbia
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkSweepSerial-8               	       1	5981234567 ns/op
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
	if got["BenchmarkSweepSerial"].NsPerOp != 5981234567 {
		t.Errorf("large ns/op parsed as %v", got["BenchmarkSweepSerial"].NsPerOp)
	}
	// An extra metric (MB/s from SetBytes) between ns/op and B/op must not
	// hide the benchmem columns.
	if m := got["BenchmarkRealDGEMM"]; m.NsPerOp != 2969659 || m.BytesPerOp != 450 || m.AllocsPerOp != 10 {
		t.Errorf("DGEMM line parsed as %+v, want 2969659 ns/op, 450 B/op, 10 allocs/op", m)
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
