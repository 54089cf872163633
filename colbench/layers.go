package main

import (
	"runtime/metrics"
	"sort"
	"time"

	"columbia/internal/dist"
)

// pointKinds are the core.PointSpec kinds, in the order they are reported.
// pingpong-lat runs three points per pass, too few for any percentile to
// have ten samples beyond it, so it reports no tail.
var pointKinds = []struct {
	name string
	tail bool
}{{"npb-mpi", true}, {"mz", true}, {"beff", true}, {"md-weak", true}, {"npb-omp", true}, {"pingpong-lat", false}}

// namedMetric is one reported number.
type namedMetric struct {
	name  string
	unit  string
	value float64
}

// runtimeSample is the benchmark process's cumulative runtime counters.
type runtimeSample struct {
	allocBytes, allocs, gcCycles uint64
	gcCPU                        float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		allocs:     s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
	}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes + b.allocBytes, a.allocs + b.allocs, a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.allocs - b.allocs, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}

// tracedRun is what one traced run measured.
type tracedRun struct {
	spans   []span
	lanes   int
	workers int
	retries int64         // sweep.Pool retries, summed over lane passes
	fleet   dist.Stats    // summed over fleet passes
	rt      runtimeSample // summed over all passes
	// traced[i] is the wall time of iteration i's pass that mirrors the CLI
	// invocation (the fleet pass when the workload has workers), untraced[i]
	// that of the CLI invocation made just before it, both in seconds.
	traced, untraced []float64
	steal            float64
}

// iterKey names one point of one iteration.
type iterKey struct {
	iter int
	key  string
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	iv = append([][2]time.Duration(nil), iv...)
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	cur := lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// per divides a total over n passes; 0 when the layer had no pass.
func per(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// layerMetrics derives every per-layer metric from a traced run. Counts,
// busy times and bytes are per pass; percentiles pool every pass's
// samples. A layer the workload does not use reports 0.
func layerMetrics(r tracedRun) []namedMetric {
	var lanePasses, fleetPasses, points, dos, tables []span
	for _, s := range r.spans {
		switch {
		case s.Name == spanWorkload && s.Pass == passLanes:
			lanePasses = append(lanePasses, s)
		case s.Name == spanWorkload:
			fleetPasses = append(fleetPasses, s)
		case s.Name == spanPoint:
			points = append(points, s)
		case s.Name == spanDo:
			dos = append(dos, s)
		case s.Name == spanTable:
			tables = append(tables, s)
		}
	}
	nl, nf := len(lanePasses), len(fleetPasses)
	var out []namedMetric
	add := func(name, unit string, v float64) { out = append(out, namedMetric{name, unit, v}) }

	// core: time in each lane pass with no point running.
	var self, laneTime time.Duration
	for _, p := range lanePasses {
		var iv [][2]time.Duration
		for _, s := range points {
			if s.Iter == p.Iter {
				iv = append(iv, [2]time.Duration{s.Start, s.End})
			}
		}
		self += p.dur() - covered(iv, p.Start, p.End)
		laneTime += time.Duration(r.lanes) * p.dur()
	}
	add("core.points", "count", per(float64(len(points)), nl))
	add("core.self_s", "s", per(self.Seconds(), nl))

	// vmpi and the models below it: one span per point, by kind.
	var busy time.Duration
	ranks := 0
	compute := map[iterKey]time.Duration{}
	for _, kind := range pointKinds {
		var ms []float64
		var kindBusy time.Duration
		for _, s := range points {
			if s.Kind == kind.name {
				ms = append(ms, float64(s.dur())/float64(time.Millisecond))
				kindBusy += s.dur()
			}
		}
		sum := summarize(ms)
		prefix := "point." + kind.name + "."
		add(prefix+"count", "count", per(float64(len(ms)), nl))
		add(prefix+"busy_s", "s", per(kindBusy.Seconds(), nl))
		add(prefix+"p50_ms", "ms", sum.P50)
		if kind.tail {
			add(prefix+"tail_ms", "ms", sum.Tail)
		}
	}
	for _, s := range points {
		busy += s.dur()
		ranks += s.Ranks
		compute[iterKey{s.Iter, s.Key}] = s.dur()
	}
	add("vmpi.ranks", "count", per(float64(ranks), nl))
	add("vmpi.us_per_rank", "us", per(float64(busy)/float64(time.Microsecond), ranks))

	// sweep: lane time with no point running.
	idle := 0.0
	if laneTime > 0 {
		idle = 1 - float64(busy)/float64(laneTime)
	}
	add("sweep.idle_frac", "frac", idle)
	add("sweep.retries", "count", per(float64(r.retries), nl))

	// dist: supervisor round trips, against the same keys' in-process
	// compute.
	var rtt []float64
	var dispatched, fleetTime, firstReply time.Duration
	specBytes, replyBytes := 0, 0
	for _, s := range dos {
		rtt = append(rtt, float64(s.dur())/float64(time.Millisecond))
		dispatched += compute[iterKey{s.Iter, s.Key}]
		specBytes += s.Bytes
		replyBytes += s.Reply
	}
	for _, p := range fleetPasses {
		fleetTime += time.Duration(r.workers) * p.dur()
		first := p.End
		for _, s := range dos {
			if s.Iter == p.Iter && s.End < first {
				first = s.End
			}
		}
		firstReply += first - p.Start
	}
	rs := summarize(rtt)
	distIdle := 0.0
	if fleetTime > 0 {
		distIdle = 1 - float64(dispatched)/float64(fleetTime)
	}
	add("dist.rtt_p50_ms", "ms", rs.P50)
	add("dist.rtt_tail_ms", "ms", rs.Tail)
	add("dist.idle_frac", "frac", distIdle)
	add("dist.first_reply_ms", "ms", per(float64(firstReply)/float64(time.Millisecond), nf))
	add("dist.spec_bytes", "B/req", per(float64(specBytes), len(dos)))
	add("dist.reply_bytes", "B/req", per(float64(replyBytes), len(dos)))
	add("dist.crashes", "count", per(float64(r.fleet.Crashes), nf))
	add("dist.restarts", "count", per(float64(r.fleet.Restarts), nf))

	// report: table rendering, in every pass.
	var render time.Duration
	rendered := 0
	for _, s := range tables {
		render += s.dur()
		rendered += s.Bytes
	}
	add("report.render_ms", "ms", per(float64(render)/float64(time.Millisecond), nl+nf))
	add("report.bytes", "B", per(float64(rendered), nl+nf))

	// Go runtime of the benchmark process over the passes.
	add("runtime.alloc_mb", "MB", per(float64(r.rt.allocBytes)/(1<<20), nl+nf))
	add("runtime.allocs", "count", per(float64(r.rt.allocs), nl+nf))
	add("runtime.gc_cycles", "count", per(float64(r.rt.gcCycles), nl+nf))
	add("runtime.gc_cpu_s", "s", per(r.rt.gcCPU, nl+nf))

	// Each traced pass runs right after its untraced invocation, so the
	// pairs share the host's speed of the moment; the median of the pair
	// ratios drifts less than a ratio of the two medians.
	var ratios []float64
	for i := range r.traced {
		if i < len(r.untraced) && r.untraced[i] > 0 {
			ratios = append(ratios, r.traced[i]/r.untraced[i]-1)
		}
	}
	add("trace.overhead_frac", "frac", summarize(ratios).P50)
	add("host.steal_frac", "frac", r.steal)
	return out
}
