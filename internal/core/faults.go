package core

import (
	"fmt"
	"sync"

	"columbia/internal/fault"
	"columbia/internal/noise"
	"columbia/internal/report"
	"columbia/internal/vmpi"
)

// The active fault plan, sanitizer toggle, noise spec and replica count are
// process-global, like the sweep pool: experiments are free functions
// registered at init time, so the CLI (and tests) install them here and
// every simulated point picks them up via withFaults.
var (
	faultMu   sync.Mutex
	faultPlan *fault.Plan
	sanitize  bool
	noiseSpec *noise.Spec
	replicas  int
)

// SetFaultPlan installs the fault plan applied to every subsequently
// submitted simulation point; nil restores healthy operation. Faulted and
// healthy points never share memo-cache entries — the plan is part of each
// point's fingerprint key.
func SetFaultPlan(p *fault.Plan) {
	faultMu.Lock()
	defer faultMu.Unlock()
	faultPlan = p
}

// FaultPlan returns the currently installed plan (nil when healthy).
func FaultPlan() *fault.Plan {
	faultMu.Lock()
	defer faultMu.Unlock()
	return faultPlan
}

// SetSanitize toggles the communication sanitizer (vmpi.Config.Sanitize,
// package commsan) for every subsequently submitted simulation point.
// Sanitized and unsanitized points never share memo-cache entries — the
// toggle is part of each point's fingerprint key.
func SetSanitize(on bool) {
	faultMu.Lock()
	defer faultMu.Unlock()
	sanitize = on
}

// Sanitize reports whether the communication sanitizer is on.
func Sanitize() bool {
	faultMu.Lock()
	defer faultMu.Unlock()
	return sanitize
}

// SetNoise installs the performance-noise specification applied to every
// subsequently submitted simulation point; nil (or an empty spec) restores
// silence. Noisy and silent points never share memo-cache entries — the
// spec, including its seed, is part of each point's fingerprint key.
func SetNoise(s *noise.Spec) {
	faultMu.Lock()
	defer faultMu.Unlock()
	noiseSpec = s
}

// NoisePlan returns the currently installed noise spec (nil when silent).
func NoisePlan() *noise.Spec {
	faultMu.Lock()
	defer faultMu.Unlock()
	return noiseSpec
}

// SetReplicas sets the ensemble size: every subsequently submitted point
// fans out into n replicas that differ only in their noise replica index.
// Values below 1 restore single-shot operation.
func SetReplicas(n int) {
	faultMu.Lock()
	defer faultMu.Unlock()
	replicas = n
}

// Replicas returns the active ensemble size (at least 1).
func Replicas() int {
	faultMu.Lock()
	defer faultMu.Unlock()
	if replicas < 1 {
		return 1
	}
	return replicas
}

// withFaults stamps the active fault plan, sanitizer toggle and noise spec
// (bound to the given ensemble replica) into a point's config. Call it
// before computing the cache key so the fingerprint reflects all of them.
// Under a silent spec the replica index is discarded — every replica of a
// noiseless point shares one fingerprint, so an ensemble sweep without
// -noise memo-collapses to single computations.
func withFaults(cfg vmpi.Config, replica int) vmpi.Config {
	cfg.Faults = FaultPlan()
	cfg.Sanitize = Sanitize()
	if spec := NoisePlan(); !spec.Empty() {
		cfg.Noise = spec.WithReplica(replica)
	}
	return cfg
}

// waitCell collects one submitted point into a table cell. Single-shot
// points (ensemble size 1) keep their historical rendering exactly: the
// rendered value on success, or a degraded "!kind" annotation (counted in
// t.Failures) on failure, so one sick point cannot abort a whole table.
// Ensembles of float-rendered replicas aggregate into a distribution cell
// (min/avg/max ±spread); a partially failed ensemble keeps its surviving
// distribution and appends one failure annotation with the survivor count.
func waitCell[T any](t *report.Table, e Ens[T], render func(T) any) any {
	vals, firstErr, fails := e.collect()
	if len(vals) == 0 {
		return t.FailCell(firstErr)
	}
	if e.size() == 1 {
		return render(vals[0])
	}
	nums := make([]float64, 0, len(vals))
	for _, v := range vals {
		f, ok := render(v).(float64)
		if !ok {
			// Non-numeric renders cannot aggregate; the first surviving
			// replica's view stands in for the ensemble.
			return render(vals[0])
		}
		nums = append(nums, f)
	}
	return ensCell(t, nums, firstErr, fails, e.size())
}

// ensCell renders collected replica values as one cell: the bare value for
// single-shot points (so AddF formatting is byte-identical to the
// pre-ensemble renderer), a distribution cell otherwise, annotated with the
// first failure when some — but not all — replicas died.
func ensCell(t *report.Table, vals []float64, firstErr error, fails, total int) any {
	if len(vals) == 0 {
		return t.FailCell(firstErr)
	}
	if total == 1 {
		return vals[0]
	}
	cell := report.EnsembleCell(vals)
	if fails > 0 {
		cell = fmt.Sprintf("%s %s(%d/%d)", cell, t.FailCell(firstErr), len(vals), total)
	}
	return cell
}

// cellText renders a waitCell result at a Table.Add (string-typed) call
// site: floats through report.Fmt, everything else — distribution cells,
// "!kind" annotations — verbatim.
func cellText(v any) string {
	if f, ok := v.(float64); ok {
		return report.Fmt(f)
	}
	return fmt.Sprint(v)
}

// numCell is the identity render for float64-valued points.
func numCell(v float64) any { return v }
