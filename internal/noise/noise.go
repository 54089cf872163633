// Package noise overlays seeded, deterministic stochastic performance
// noise on the Columbia machine model. Where package fault injects
// *deterministic* degradation (a CPU slowed by exactly 1.13×, a link at
// exactly a quarter bandwidth), noise models what the paper could only
// observe anecdotally: OS jitter and daemon interference that make
// nominally identical runs differ (§4.6.2's boot-cpuset effect, and the
// run-to-run spread visible throughout §4-§6). The ARCHER/Cirrus noise
// methodology applies — run each configuration as an ensemble of replicas
// and report the min/avg/max spread — but with one twist demanded by this
// repository's byte-identity guarantee: "stochastic" still means
// "reproducible". Every draw comes from an NPB LCG stream (package rng)
// derived purely from (spec seed, fault-plan seed, replica, rank), and
// streams advance once per compute event in per-rank program order, so a
// replica's results are a function of the Config alone — identical across
// -j 1/-j 8, across worker processes, and across both vmpi engines.
//
// # Noise kinds and what they model
//
//   - Jitter: a per-compute-event multiplicative slowdown 1 + amp·X with
//     X drawn per rank from a chosen distribution — uniform (bounded
//     scheduling noise), exponential (memoryless daemon wakeups), or
//     truncated Pareto (heavy-tailed interference: page migrations, cpuset
//     rebalancing — rare events that dominate the tail, as in the
//     RZBENCH and ARCHER studies).
//   - Daemon windows: a periodic square wave of virtual time during which
//     compute on eligible CPUs runs factor× slower — the boot-cpuset
//     effect of §4.6.2, where system daemons pinned to the first CPUs of
//     every box periodically steal cycles. The cpus argument limits the
//     window to the first CPUS per-node CPU indices (0 = every CPU).
//
// # Replicas and ensembles
//
// A Spec carries a replica index. Replica r of an ensemble is an ordinary
// memoized sweep point whose fingerprint differs from replica 0's only in
// "replica=r", so each replica caches and distributes across workers
// independently, and re-running the same seed hits the memo cache for
// every replica. The replica index is mixed into the stream derivation, so
// replicas draw independent jitter; everything else about the point is
// shared.
package noise

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"columbia/internal/rng"
)

// Jitter distribution kinds accepted by WithJitter and Parse.
const (
	Uniform = "uniform"
	Exp     = "exp"
	Pareto  = "pareto"
)

const (
	// ampMax caps the jitter amplitude: beyond 10× the model is no longer
	// "noise on top of a working machine" and belongs in package fault.
	ampMax = 10
	// alphaMin keeps the Pareto mean finite (alpha must exceed 1);
	// alphaMax keeps the spec printable in %g without surprises.
	alphaMin = 1.05
	alphaMax = 64
	// paretoCap truncates Pareto draws so one tail event slows a compute
	// by at most 1 + amp·paretoCap — enormous, but finite and readable.
	paretoCap = 100
	// cpusMax bounds the daemon cpus cutoff; no Columbia box has more.
	cpusMax = 4096
	// factorMax mirrors fault.clampFactor's ceiling for slowdowns.
	factorMax = 1e6
)

// Spec is a deterministic description of stochastic noise. The zero value
// is not usable; build specs with New (or Parse) and the chainable With*
// methods. All query methods are nil-safe: a nil *Spec is silence.
type Spec struct {
	kind  string  // jitter distribution: "", Uniform, Exp or Pareto
	amp   float64 // jitter amplitude, in (0, ampMax]; 0 = no jitter
	alpha float64 // Pareto shape, in [alphaMin, alphaMax]; 0 unless Pareto
	seed  uint64  // base seed word for stream derivation

	period float64 // daemon window period in virtual seconds; 0 = none
	duty   float64 // fraction of each period the daemon runs, in (0, 1]
	factor float64 // compute slowdown inside the window, > 1
	cpus   int     // per-node CPU-index cutoff; 0 = every CPU

	replica int // replica index within an ensemble (0-based)
}

// New returns a silent spec.
func New() *Spec { return &Spec{} }

// WithUniform adds uniform jitter: each compute event is slowed by
// 1 + amp·U with U uniform in (0, 1). amp is clamped to [0, 10]; 0
// disables jitter.
func (s *Spec) WithUniform(amp float64) *Spec { return s.jitter(Uniform, amp, 0) }

// WithExp adds exponential jitter: 1 + amp·E with E standard exponential
// (mean 1) — memoryless daemon wakeups.
func (s *Spec) WithExp(amp float64) *Spec { return s.jitter(Exp, amp, 0) }

// WithPareto adds truncated-Pareto jitter: 1 + amp·P with
// P = (1-U)^(-1/alpha) - 1 capped at 100 — heavy-tailed interference.
// alpha is clamped into [1.05, 64]; values at or below 1 (infinite mean)
// are pulled up to the floor.
func (s *Spec) WithPareto(amp, alpha float64) *Spec { return s.jitter(Pareto, amp, alpha) }

func (s *Spec) jitter(kind string, amp, alpha float64) *Spec {
	if amp < 0 || math.IsNaN(amp) {
		amp = 0
	}
	if amp > ampMax {
		amp = ampMax
	}
	if amp == 0 { //detlint:allow floatcmp amp was clamped to exactly 0 above; this is a sentinel test
		s.kind, s.amp, s.alpha = "", 0, 0
		return s
	}
	s.kind, s.amp = kind, amp
	if kind == Pareto {
		if alpha < alphaMin || math.IsNaN(alpha) {
			alpha = alphaMin
		}
		if alpha > alphaMax {
			alpha = alphaMax
		}
		s.alpha = alpha
	} else {
		s.alpha = 0
	}
	return s
}

// WithSeed sets the base seed word for stream derivation. Different seeds
// draw independent noise; the default 0 is itself a valid seed but keeps
// the fingerprint free of a seed= part.
func (s *Spec) WithSeed(n uint64) *Spec {
	s.seed = n
	return s
}

// WithDaemon adds a periodic interference window: every period virtual
// seconds, compute on eligible CPUs runs factor× slower for duty·period
// seconds. cpus limits eligibility to per-node CPU indices below cpus
// (the paper's boot cpuset held the first CPUs of every box); 0 means
// every CPU. Out-of-domain arguments are clamped: duty into [0, 1],
// factor into [1, 1e6], cpus into [0, 4096]; period <= 0 disables the
// window entirely.
func (s *Spec) WithDaemon(period, duty, factor float64, cpus int) *Spec {
	if period <= 0 || math.IsNaN(period) || math.IsInf(period, 0) {
		s.period, s.duty, s.factor, s.cpus = 0, 0, 0, 0
		return s
	}
	if duty < 0 || math.IsNaN(duty) {
		duty = 0
	}
	if duty > 1 {
		duty = 1
	}
	if factor < 1 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		factor = 1
	}
	if factor > factorMax {
		factor = factorMax
	}
	if cpus < 0 {
		cpus = 0
	}
	if cpus > cpusMax {
		cpus = cpusMax
	}
	if duty == 0 || factor == 1 { //detlint:allow floatcmp both values were clamped to these exact sentinels above
		// A window that never runs, or never slows, is no window: drop it
		// so the fingerprint stays canonical.
		s.period, s.duty, s.factor, s.cpus = 0, 0, 0, 0
		return s
	}
	s.period, s.duty, s.factor, s.cpus = period, duty, factor, cpus
	return s
}

// WithReplica returns a copy of the spec positioned at replica r of an
// ensemble. Nil-safe: a nil spec stays nil (silence has no replicas).
// The receiver is not modified — ensemble fan-out stamps many replicas
// from one parsed spec.
func (s *Spec) WithReplica(r int) *Spec {
	if s == nil {
		return nil
	}
	c := *s
	if r < 0 {
		r = 0
	}
	c.replica = r
	return &c
}

// Jitters reports whether the spec draws per-event jitter.
func (s *Spec) Jitters() bool { return s != nil && s.kind != "" }

// Daemons reports whether the spec has an active interference window.
func (s *Spec) Daemons() bool { return s != nil && s.period > 0 }

// Perturbs reports whether the spec changes any compute time at all.
func (s *Spec) Perturbs() bool { return s.Jitters() || s.Daemons() }

// Replica returns the spec's replica index; 0 for nil.
func (s *Spec) Replica() int {
	if s == nil {
		return 0
	}
	return s.replica
}

// Seed returns the spec's base seed word; 0 for nil.
func (s *Spec) Seed() uint64 {
	if s == nil {
		return 0
	}
	return s.seed
}

// Empty reports whether the spec carries nothing at all — no jitter, no
// daemon window, default seed, replica 0. Empty() iff Fingerprint() == "".
func (s *Spec) Empty() bool {
	return s == nil || (!s.Perturbs() && s.seed == 0 && s.replica == 0)
}

// Fingerprint renders the spec canonically: directives sorted, numbers in
// shortest round-trip form, empty specs as "". Parse(Fingerprint()) is the
// identity on canonical specs, and equal fingerprints imply identical
// noise, so vmpi folds this into Config.Fingerprint to keep every
// (seed, replica) point on its own memo-cache entry.
func (s *Spec) Fingerprint() string {
	if s.Empty() {
		return ""
	}
	var parts []string
	if s.Jitters() {
		if s.kind == Pareto {
			parts = append(parts, fmt.Sprintf("jitter=%s:%g:%g", s.kind, s.amp, s.alpha))
		} else {
			parts = append(parts, fmt.Sprintf("jitter=%s:%g", s.kind, s.amp))
		}
	}
	if s.Daemons() {
		if s.cpus > 0 {
			parts = append(parts, fmt.Sprintf("daemon=%g:%g:%g:%d", s.period, s.duty, s.factor, s.cpus))
		} else {
			parts = append(parts, fmt.Sprintf("daemon=%g:%g:%g", s.period, s.duty, s.factor))
		}
	}
	if s.seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.seed))
	}
	if s.replica != 0 {
		parts = append(parts, fmt.Sprintf("replica=%d", s.replica))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// String renders the spec for humans: the fingerprint, or "silent".
func (s *Spec) String() string {
	if s.Empty() {
		return "silent"
	}
	return s.Fingerprint()
}

// Parse builds a spec from a comma-separated string, the syntax of the
// columbia CLI's -noise flag. Directives:
//
//	jitter=KIND:AMP[:ALPHA]     per-event jitter; KIND is uniform, exp or
//	                            pareto; AMP in (0, 10]; ALPHA (> 1, pareto
//	                            only) defaults to 1.5
//	daemon=PERIOD:DUTY:FACTOR[:CPUS]  periodic interference window: every
//	                            PERIOD virtual seconds, compute runs
//	                            FACTOR× (> 1) slower for DUTY·PERIOD
//	                            seconds on the first CPUS CPUs of every
//	                            box (0 or omitted = all CPUs)
//	seed=N                      base seed word (decimal uint64)
//	replica=N                   replica index (set by the ensemble driver,
//	                            accepted here so fingerprints round-trip)
//
// Example: "jitter=exp:0.05,daemon=10:0.02:3:4,seed=7".
func Parse(spec string) (*Spec, error) {
	s := New()
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, argstr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("noise: directive %q is not name=args", part)
		}
		switch strings.TrimSpace(name) {
		case "jitter":
			kind, rest, _ := strings.Cut(argstr, ":")
			kind = strings.TrimSpace(kind)
			args, err := parseFloats(rest)
			if err != nil {
				return nil, fmt.Errorf("noise: directive %q: %v", part, err)
			}
			if len(args) < 1 || len(args) > 2 {
				return nil, fmt.Errorf("noise: directive %q: want jitter=KIND:AMP[:ALPHA]", part)
			}
			amp := args[0]
			if amp <= 0 || amp > ampMax {
				return nil, fmt.Errorf("noise: directive %q: amplitude %g must be in (0, %d]", part, amp, ampMax)
			}
			switch kind {
			case Uniform, Exp:
				if len(args) != 1 {
					return nil, fmt.Errorf("noise: directive %q: alpha is only meaningful for pareto", part)
				}
				s.jitter(kind, amp, 0)
			case Pareto:
				alpha := 1.5
				if len(args) == 2 {
					alpha = args[1]
					if alpha < alphaMin || alpha > alphaMax {
						return nil, fmt.Errorf("noise: directive %q: alpha %g must be in [%g, %d]", part, alpha, alphaMin, alphaMax)
					}
				}
				s.jitter(Pareto, amp, alpha)
			default:
				return nil, fmt.Errorf("noise: directive %q: unknown distribution %q (want uniform, exp or pareto)", part, kind)
			}
		case "daemon":
			args, err := parseFloats(argstr)
			if err != nil {
				return nil, fmt.Errorf("noise: directive %q: %v", part, err)
			}
			if len(args) < 3 || len(args) > 4 {
				return nil, fmt.Errorf("noise: directive %q: want daemon=PERIOD:DUTY:FACTOR[:CPUS]", part)
			}
			if args[0] <= 0 {
				return nil, fmt.Errorf("noise: directive %q: period must be positive", part)
			}
			if args[1] <= 0 || args[1] > 1 {
				return nil, fmt.Errorf("noise: directive %q: duty must be in (0, 1]", part)
			}
			if args[2] <= 1 || args[2] > factorMax {
				return nil, fmt.Errorf("noise: directive %q: factor must be in (1, %g]", part, float64(factorMax))
			}
			cpus := 0
			if len(args) == 4 {
				//detlint:allow floatcmp integrality check on a just-parsed literal; Trunc of an integral float is exact
				if args[3] != math.Trunc(args[3]) || args[3] < 0 || args[3] > cpusMax {
					return nil, fmt.Errorf("noise: directive %q: cpus must be an integer in [0, %d]", part, cpusMax)
				}
				cpus = int(args[3])
			}
			s.WithDaemon(args[0], args[1], args[2], cpus)
		case "seed":
			n, err := strconv.ParseUint(strings.TrimSpace(argstr), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("noise: directive %q: seed must be a non-negative integer", part)
			}
			s.WithSeed(n)
		case "replica":
			n, err := strconv.ParseUint(strings.TrimSpace(argstr), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("noise: directive %q: replica must be a non-negative integer", part)
			}
			s.replica = int(n)
		default:
			return nil, fmt.Errorf("noise: unknown directive %q", name)
		}
	}
	return s, nil
}

// parseFloats parses a colon-separated argument list.
func parseFloats(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("missing arguments")
	}
	fields := strings.Split(s, ":")
	out := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bad number %q", f)
		}
		out[i] = v
	}
	return out, nil
}

// Runtime is a spec bound to a concrete simulation: one derived rng stream
// per rank plus the per-rank daemon eligibility mask. It is built once per
// engine (per vmpi run) and never shared — streams are mutable state, and
// per-rank ownership is what makes draws independent of the interleaving
// the scheduler happens to pick. A nil Runtime is the identity.
type Runtime struct {
	spec     Spec
	streams  []rng.Stream
	daemoned []bool
}

// NewRuntime binds a spec to a run of the given rank count. planSeed is
// the fault plan's decorrelation seed (fault.Plan.Seed); cpuIndex maps a
// rank to its per-node CPU index for daemon eligibility, and may be nil
// when the spec has no daemon window. Returns nil — the identity — when
// the spec perturbs nothing.
func NewRuntime(s *Spec, planSeed uint64, ranks int, cpuIndex func(rank int) int) *Runtime {
	if !s.Perturbs() {
		return nil
	}
	rt := &Runtime{spec: *s}
	if s.Jitters() {
		rt.streams = make([]rng.Stream, ranks)
		for r := range rt.streams {
			rt.streams[r] = rng.Derive(s.seed, planSeed, uint64(s.replica), uint64(r))
		}
	}
	if s.Daemons() {
		rt.daemoned = make([]bool, ranks)
		for r := range rt.daemoned {
			rt.daemoned[r] = s.cpus == 0 || (cpuIndex != nil && cpuIndex(r) < s.cpus)
		}
	}
	return rt
}

// Perturb returns the noisy compute time for rank's event starting at
// virtual time now with nominal duration t. The rank's jitter stream
// advances exactly once per call whatever t is, so the draw sequence is a
// function of the rank's program order alone — every scheduler
// interleaving, every -j and every worker replay it identically.
// Nil-safe: a nil Runtime returns t.
func (rt *Runtime) Perturb(rank int, now, t float64) float64 {
	if rt == nil {
		return t
	}
	if rt.streams != nil {
		u := rt.streams[rank].Next()
		t *= 1 + rt.spec.amp*drawX(rt.spec.kind, rt.spec.alpha, u)
	}
	if rt.daemoned != nil && rt.daemoned[rank] {
		// Square wave of virtual time, like fault.Plan.FlapLink: the
		// window is open for the first duty·period seconds of each period.
		if math.Mod(now, rt.spec.period) < rt.spec.duty*rt.spec.period {
			t *= rt.spec.factor
		}
	}
	return t
}

// drawX maps a uniform deviate u in (0, 1) onto the chosen distribution.
func drawX(kind string, alpha, u float64) float64 {
	switch kind {
	case Exp:
		return -math.Log(1 - u)
	case Pareto:
		x := math.Pow(1-u, -1/alpha) - 1
		if x > paretoCap {
			x = paretoCap
		}
		return x
	default: // Uniform
		return u
	}
}
