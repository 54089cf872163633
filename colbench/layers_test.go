package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"columbia/internal/dist"
)

func ms(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }

func TestCovered(t *testing.T) {
	iv := [][2]time.Duration{{ms(20), ms(30)}, {ms(5), ms(15)}, {ms(0), ms(10)}, {ms(12), ms(14)}}
	if got := covered(iv, ms(2), ms(25)); got != ms(18) {
		t.Errorf("covered = %v, want 18ms ([2,15] and [20,25])", got)
	}
	if got := covered(nil, 0, ms(10)); got != 0 {
		t.Errorf("covered(nil) = %v, want 0", got)
	}
	if iv[0][0] != ms(20) {
		t.Error("covered reordered its input")
	}
}

// handRun is one iteration on two lanes followed by a fleet pass on two
// workers that dispatches two of the same keys.
func handRun() tracedRun {
	lanes := tracer{iter: 0, pass: passLanes}
	fleet := tracer{iter: 0, pass: passWorkers}
	var spans []span
	add := func(tr tracer, s span) { s.Iter, s.Pass = tr.iter, tr.pass; spans = append(spans, s) }
	add(lanes, span{Name: spanWorkload, Start: 0, End: ms(100)})
	add(lanes, span{Name: spanPoint, Kind: "npb-mpi", Key: "a", Lane: 0, Start: ms(10), End: ms(60), Ranks: 4})
	add(lanes, span{Name: spanPoint, Kind: "mz", Key: "b", Lane: 1, Start: ms(20), End: ms(40), Ranks: 2})
	add(lanes, span{Name: spanPoint, Kind: "mz", Key: "c", Lane: 1, Start: ms(50), End: ms(90), Ranks: 8})
	add(lanes, span{Name: spanTable, Kind: "t", Start: ms(95), End: ms(96), Bytes: 300})
	add(fleet, span{Name: spanWorkload, Start: ms(100), End: ms(200)})
	add(fleet, span{Name: spanDo, Kind: "npb-mpi", Key: "a", Lane: 0, Start: ms(110), End: ms(170), Bytes: 200, Reply: 10})
	add(fleet, span{Name: spanDo, Kind: "mz", Key: "b", Lane: 1, Start: ms(105), End: ms(130), Bytes: 240, Reply: 14})
	add(fleet, span{Name: spanTable, Kind: "t", Start: ms(195), End: ms(198), Bytes: 300})
	return tracedRun{spans: spans, lanes: 2, workers: 2, fleet: dist.Stats{Crashes: 1, Restarts: 1},
		traced: []float64{1.1}, untraced: []float64{1.0}}
}

func metricMap(xs []namedMetric) map[string]float64 {
	m := map[string]float64{}
	for _, x := range xs {
		m[x.name] = x.value
	}
	return m
}

func TestLayerArithmetic(t *testing.T) {
	m := metricMap(layerMetrics(handRun()))
	want := map[string]float64{
		// Points cover [10,90] of the 100 ms pass.
		"core.self_s":     0.020,
		"core.points":     3,
		"vmpi.ranks":      14,
		"point.mz.count":  2,
		"point.mz.busy_s": 0.060,
		"point.mz.p50_ms": 30,
		// 110 ms of point time on 2 lanes x 100 ms.
		"sweep.idle_frac":  1 - 110.0/200,
		"vmpi.us_per_rank": 110000.0 / 14,
		// Keys a and b computed 50 + 20 ms in-process; 2 workers x 100 ms.
		"dist.idle_frac":      1 - 70.0/200,
		"dist.first_reply_ms": 30,
		"dist.rtt_p50_ms":     42.5,
		"dist.spec_bytes":     220,
		"dist.reply_bytes":    12,
		"dist.crashes":        1,
		"report.render_ms":    2,
		"report.bytes":        300,
		"trace.overhead_frac": 0.1,
	}
	for name, v := range want {
		if got, ok := m[name]; !ok || math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

// benchmarkJSON is the repository's benchmark definition.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkJSON
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestMetricsMatchDefinition checks that each mode emits exactly the
// metrics BENCHMARK.json declares, each printed with its name and unit in
// the report and in the result line.
func TestMetricsMatchDefinition(t *testing.T) {
	def := loadBenchmarkJSON(t)
	check := func(mode string, got []namedMetric, want []struct{ Name, Unit string }, report string) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", mode, len(got), len(want))
		}
		units := map[string]string{}
		for _, m := range got {
			units[m.name] = m.unit
		}
		for _, w := range want {
			if u, ok := units[w.Name]; !ok || u != w.Unit {
				t.Errorf("%s: metric %s has unit %q, want %q", mode, w.Name, u, w.Unit)
			}
			if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(w.Name) + ` +` + regexp.QuoteMeta(w.Unit) + ` `).MatchString(report) {
				t.Errorf("%s: report does not print %s with unit %s", mode, w.Name, w.Unit)
			}
		}
		line, err := resultJSON(1, 0, got)
		if err != nil {
			t.Fatal(err)
		}
		var res struct {
			Correct bool
			Metrics map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatal(err)
		}
		for _, w := range want {
			if m, ok := res.Metrics[w.Name]; !ok || m.Value == nil || m.Unit != w.Unit {
				t.Errorf("%s: result line lacks %s in %s: %s", mode, w.Name, w.Unit, line)
			}
		}
	}
	var untraced strings.Builder
	got := e2eMetrics(&untraced, []float64{5.1, 5.3, 5.2}, []float64{0.002, 0.003}, []float64{70, 71, 72})
	check("untraced", got, def.EndToEnd, untraced.String())
	var traced strings.Builder
	got = layerMetrics(handRun())
	printLayers(&traced, got)
	check("traced", got, def.PerLayer, traced.String())
}
