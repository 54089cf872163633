// Package fault injects deterministic hardware degradation into the
// Columbia machine model, so experiments can characterize performance under
// a perturbed machine the way §4.2 of the paper characterizes it under bad
// CPU stride. Columbia in production was never the pristine machine of
// Table 1: the boot cpuset stole cycles from four CPUs of every box
// (§4.6.2), memory buses were shared and contended (§4.2), and the
// InfiniBand cards imposed hard connection limits (§5). A Plan makes those
// degradations — and harder ones, like losing a box outright — explicit,
// reproducible inputs to a simulation.
//
// # Fault kinds and what they model
//
//   - SlowCPU / SlowNode: a multiplicative compute slowdown on selected
//     CPUs, emulating boot-cpuset interference and OS jitter (§4.6.2).
//   - DegradeBus: a bandwidth scale on one front-side bus, emulating a
//     failing DIMM channel or a bus saturated by an unrelated tenant — the
//     shared-bus contention of §4.2 made permanent.
//   - DegradeLink / FlapLink: a bandwidth scale on one box's internode
//     capacity (NUMAlink4 quad links or InfiniBand cards), steady or
//     flapping on a square wave of virtual time — a failing IB card or a
//     congested switch port (§4.6.1).
//   - DegradeFabric: a scale on one box's intra-node cross-brick fabric
//     capacity, emulating a failed NUMAlink router plane.
//   - LoseNode: the box is gone. Any placement touching it fails with a
//     structured node-down error; MarkTransient marks such losses
//     retryable (a rebooting box) for the sweep scheduler's backoff loop.
//
// # Worker chaos
//
// A second directive family sabotages the *sweep infrastructure* rather
// than the simulated machine: when the sweep runs on an out-of-process
// worker fleet (columbia -workers N, package dist), the chaos directives
// make each worker process kill itself, corrupt or truncate its reply
// frames, or stall its heartbeats on a deterministic per-process schedule,
// so the supervisor's crash recovery can be exercised — and golden output
// proven byte-identical — under every failure mode. Chaos directives never
// perturb simulation results; they are folded into the plan fingerprint
// like every other directive, so chaos and healthy runs keep disjoint memo
// caches.
//
//   - KillWorker: the worker serves M points, then exits abruptly while
//     serving the next (an OOM-killed or segfaulted worker).
//   - CorruptReply / TruncateReply: the worker's Nth reply frame is
//     corrupted in place (checksum mismatch) or cut off mid-write followed
//     by process exit (a worker dying mid-reply).
//   - StallWorker: after M points the worker stops heartbeating and hangs
//     (a livelocked worker), forcing the supervisor's deadline path.
//
// # Determinism
//
// A Plan is pure data: queries depend only on the plan and, for flapping
// links, on the *virtual* time of the query, never on wall clock or
// randomness. Two simulations with equal configs and equal plans produce
// bit-identical results. Fingerprint renders the plan canonically (sorted,
// locale-free) and is folded into vmpi.Config.Fingerprint, so faulted and
// healthy runs of the same config can never share a memo-cache entry.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"columbia/internal/machine"
)

// minScale floors every bandwidth scale so a fully-down link degrades a
// simulation into enormous-but-finite virtual times instead of dividing by
// zero.
const minScale = 1e-6

type cpuKey struct{ node, cpu int }
type busKey struct{ node, bus int }

// linkFault describes one box's internode capacity degradation. period == 0
// means a steady scale; otherwise the link flaps on a square wave of
// virtual time: scale up for duty*period seconds, downScale for the rest.
type linkFault struct {
	scale     float64
	period    float64
	duty      float64
	downScale float64
}

// Plan is a deterministic set of hardware faults. The zero of the type is
// not usable; build plans with New (or Parse) and the chainable With*
// methods. All query methods are nil-safe: a nil *Plan is the healthy
// machine.
type Plan struct {
	slowCPU   map[cpuKey]float64
	slowNode  map[int]float64
	bus       map[busKey]float64
	link      map[int]linkFault
	fabric    map[int]float64
	down      map[int]bool
	transient bool
	// Worker-chaos schedule (see "Worker chaos" above). Counts are stored
	// shifted by one so the zero value means "directive absent": workerKill
	// and workerStall hold M+1 (trigger while serving request M+1),
	// workerCorrupt and workerTrunc hold the 1-based reply index N.
	workerKill    int
	workerCorrupt int
	workerTrunc   int
	workerStall   int
	// seed decorrelates any stochastic noise overlay (package noise)
	// riding on top of this plan: it is mixed as an extra word into the
	// per-rank jitter stream derivation, so the same -noise spec draws
	// fresh jitter under each faulted scenario. 0 (the default) adds no
	// entropy and leaves historical fingerprints unchanged.
	seed uint64
}

// New returns an empty plan describing the healthy machine.
func New() *Plan {
	return &Plan{
		slowCPU:  make(map[cpuKey]float64),
		slowNode: make(map[int]float64),
		bus:      make(map[busKey]float64),
		link:     make(map[int]linkFault),
		fabric:   make(map[int]float64),
		down:     make(map[int]bool),
	}
}

// clampFactor normalizes a slowdown factor: slowdowns are >= 1.
func clampFactor(f float64) float64 {
	if f < 1 || math.IsNaN(f) || math.IsInf(f, 0) {
		return 1
	}
	return f
}

// clampScale normalizes a bandwidth scale into [minScale, 1].
func clampScale(s float64) float64 {
	if s > 1 || math.IsNaN(s) {
		return 1
	}
	if s < minScale {
		return minScale
	}
	return s
}

// SlowCPU slows one CPU's compute by factor (>= 1): boot-cpuset-style
// interference pinned to a single processor.
func (p *Plan) SlowCPU(node, cpu int, factor float64) *Plan {
	p.slowCPU[cpuKey{node, cpu}] = clampFactor(factor)
	return p
}

// SlowNode slows every CPU of one box by factor (>= 1): whole-box OS
// jitter, the generalization of the paper's 10-15% boot-cpuset hit.
func (p *Plan) SlowNode(node int, factor float64) *Plan {
	p.slowNode[node] = clampFactor(factor)
	return p
}

// DegradeBus scales the memory bandwidth of one front-side bus (two CPUs
// per bus) by scale in (0, 1].
func (p *Plan) DegradeBus(node, bus int, scale float64) *Plan {
	p.bus[busKey{node, bus}] = clampScale(scale)
	return p
}

// DegradeLink steadily scales one box's internode capacity (quad links or
// IB cards) by scale in (0, 1].
func (p *Plan) DegradeLink(node int, scale float64) *Plan {
	p.link[node] = linkFault{scale: clampScale(scale)}
	return p
}

// FlapLink makes one box's internode capacity flap: full bandwidth for
// duty*period seconds of virtual time, then downScale bandwidth for the
// remainder of each period.
func (p *Plan) FlapLink(node int, period, duty, downScale float64) *Plan {
	if period <= 0 {
		return p.DegradeLink(node, downScale)
	}
	if duty < 0 {
		duty = 0
	}
	if duty > 1 {
		duty = 1
	}
	p.link[node] = linkFault{scale: 1, period: period, duty: duty, downScale: clampScale(downScale)}
	return p
}

// DegradeFabric scales one box's intra-node cross-brick fabric capacity by
// scale in (0, 1].
func (p *Plan) DegradeFabric(node int, scale float64) *Plan {
	p.fabric[node] = clampScale(scale)
	return p
}

// LoseNode removes one box from service: any placement touching it fails
// with a node-down error instead of simulating.
func (p *Plan) LoseNode(node int) *Plan {
	p.down[node] = true
	return p
}

// MarkTransient declares the plan's node losses transient (a rebooting
// box rather than scrapped hardware): node-down errors become retryable,
// so the sweep scheduler's bounded backoff loop applies to them.
func (p *Plan) MarkTransient() *Plan {
	p.transient = true
	return p
}

// WithSeed sets the plan's noise-decorrelation seed (see the seed field):
// package noise mixes it into its jitter stream derivation so a faulted
// scenario draws jitter independent of the healthy run's.
func (p *Plan) WithSeed(n uint64) *Plan {
	p.seed = n
	return p
}

// Seed returns the noise-decorrelation seed; 0 for a nil or unseeded plan.
func (p *Plan) Seed() uint64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// KillWorker schedules worker suicide: each worker process serves m (>= 0)
// points, then exits abruptly while serving the next. m = 0 kills every
// request — the poison-point schedule that drives quarantine.
func (p *Plan) KillWorker(m int) *Plan {
	if m < 0 {
		m = 0
	}
	p.workerKill = m + 1
	return p
}

// CorruptReply corrupts each worker process's n-th (1-based) reply frame in
// place, so the supervisor sees a checksum mismatch instead of a result.
func (p *Plan) CorruptReply(n int) *Plan {
	if n < 1 {
		n = 1
	}
	p.workerCorrupt = n
	return p
}

// TruncateReply cuts each worker process's n-th (1-based) reply frame off
// mid-write and exits, so the supervisor sees a short read.
func (p *Plan) TruncateReply(n int) *Plan {
	if n < 1 {
		n = 1
	}
	p.workerTrunc = n
	return p
}

// StallWorker schedules a hang: each worker process serves m (>= 0) points,
// then stops heartbeating and blocks forever on the next request, forcing
// the supervisor's heartbeat-deadline kill.
func (p *Plan) StallWorker(m int) *Plan {
	if m < 0 {
		m = 0
	}
	p.workerStall = m + 1
	return p
}

// WorkerKillRequest returns the 1-based request index a worker process must
// die while serving, if a kill is scheduled.
func (p *Plan) WorkerKillRequest() (int, bool) {
	if p == nil || p.workerKill == 0 {
		return 0, false
	}
	return p.workerKill, true
}

// WorkerCorruptReply returns the 1-based reply index a worker process must
// corrupt, if corruption is scheduled.
func (p *Plan) WorkerCorruptReply() (int, bool) {
	if p == nil || p.workerCorrupt == 0 {
		return 0, false
	}
	return p.workerCorrupt, true
}

// WorkerTruncateReply returns the 1-based reply index a worker process must
// truncate, if truncation is scheduled.
func (p *Plan) WorkerTruncateReply() (int, bool) {
	if p == nil || p.workerTrunc == 0 {
		return 0, false
	}
	return p.workerTrunc, true
}

// WorkerStallRequest returns the 1-based request index a worker process
// must hang on (heartbeats silenced), if a stall is scheduled.
func (p *Plan) WorkerStallRequest() (int, bool) {
	if p == nil || p.workerStall == 0 {
		return 0, false
	}
	return p.workerStall, true
}

// Empty reports whether the plan perturbs nothing; a nil plan is empty.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.slowCPU) == 0 && len(p.slowNode) == 0 &&
		len(p.bus) == 0 && len(p.link) == 0 && len(p.fabric) == 0 && len(p.down) == 0 &&
		p.workerKill == 0 && p.workerCorrupt == 0 && p.workerTrunc == 0 && p.workerStall == 0 &&
		p.seed == 0)
}

// CPUFactor returns the compute-time multiplier (>= 1) for the CPU at l:
// the product of any node-wide and CPU-specific slowdowns.
func (p *Plan) CPUFactor(l machine.Loc) float64 {
	if p == nil {
		return 1
	}
	f := 1.0
	if nf, ok := p.slowNode[l.Node]; ok {
		f *= nf
	}
	if cf, ok := p.slowCPU[cpuKey{l.Node, l.CPU}]; ok {
		f *= cf
	}
	return f
}

// BusScale returns the memory-bandwidth scale in (0, 1] of the given bus.
func (p *Plan) BusScale(node, bus int) float64 {
	if p == nil {
		return 1
	}
	if s, ok := p.bus[busKey{node, bus}]; ok {
		return s
	}
	return 1
}

// LinkScale returns the internode-capacity scale in (0, 1] of one box at
// virtual time t. Flapping links evaluate a square wave of t, so the value
// is deterministic for a deterministic simulation.
func (p *Plan) LinkScale(node int, t float64) float64 {
	if p == nil {
		return 1
	}
	lf, ok := p.link[node]
	if !ok {
		return 1
	}
	if lf.period <= 0 {
		return lf.scale
	}
	phase := math.Mod(t/lf.period, 1)
	if phase < 0 {
		phase += 1
	}
	if phase < lf.duty {
		return lf.scale
	}
	return lf.downScale
}

// LinkDead reports whether the node's internode link counts as severed at
// virtual time t: its bandwidth scale has collapsed to the minScale floor
// (a linkdown directive of 0, or a flap in its down phase with down scale
// 0). The engine fails such traffic with a linkdown error instead of
// simulating a near-infinite transfer.
func (p *Plan) LinkDead(node int, t float64) bool {
	return p != nil && p.LinkScale(node, t) <= minScale
}

// FabricScale returns the intra-node fabric capacity scale in (0, 1].
func (p *Plan) FabricScale(node int) float64 {
	if p == nil {
		return 1
	}
	if s, ok := p.fabric[node]; ok {
		return s
	}
	return 1
}

// NodeDown reports whether the box has been lost.
func (p *Plan) NodeDown(node int) bool {
	return p != nil && p.down[node]
}

// Transient reports whether node losses should be treated as retryable.
func (p *Plan) Transient() bool { return p != nil && p.transient }

// Fingerprint renders the plan canonically: directives sorted, numbers in
// shortest round-trip form, empty plans as "". Equal fingerprints imply
// identical perturbations, so vmpi folds this into its config fingerprint
// to keep faulted and healthy cache entries disjoint.
func (p *Plan) Fingerprint() string {
	if p.Empty() {
		return ""
	}
	var parts []string
	for k, f := range p.slowCPU {
		parts = append(parts, fmt.Sprintf("slowcpu=%d:%d:%g", k.node, k.cpu, f))
	}
	for n, f := range p.slowNode {
		parts = append(parts, fmt.Sprintf("slownode=%d:%g", n, f))
	}
	for k, s := range p.bus {
		parts = append(parts, fmt.Sprintf("buslow=%d:%d:%g", k.node, k.bus, s))
	}
	for n, lf := range p.link {
		if lf.period > 0 {
			parts = append(parts, fmt.Sprintf("flap=%d:%g:%g:%g", n, lf.period, lf.duty, lf.downScale))
		} else {
			parts = append(parts, fmt.Sprintf("linkdown=%d:%g", n, lf.scale))
		}
	}
	for n, s := range p.fabric {
		parts = append(parts, fmt.Sprintf("fabric=%d:%g", n, s))
	}
	for n := range p.down {
		parts = append(parts, fmt.Sprintf("nodedown=%d", n))
	}
	// Chaos counts render in the directive's own units: wkill/wstall as the
	// number of points served before the trigger (stored shifted by one),
	// wcorrupt/wtrunc as the 1-based reply index.
	if p.workerKill > 0 {
		parts = append(parts, fmt.Sprintf("wkill=%d", p.workerKill-1))
	}
	if p.workerCorrupt > 0 {
		parts = append(parts, fmt.Sprintf("wcorrupt=%d", p.workerCorrupt))
	}
	if p.workerTrunc > 0 {
		parts = append(parts, fmt.Sprintf("wtrunc=%d", p.workerTrunc))
	}
	if p.workerStall > 0 {
		parts = append(parts, fmt.Sprintf("wstall=%d", p.workerStall-1))
	}
	if p.seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.seed))
	}
	sort.Strings(parts)
	if p.transient {
		parts = append(parts, "transient")
	}
	return strings.Join(parts, ",")
}

// String renders the plan for humans: the fingerprint, or "healthy".
func (p *Plan) String() string {
	if p.Empty() {
		return "healthy"
	}
	return p.Fingerprint()
}

// Parse builds a plan from a comma-separated spec, the syntax of the
// columbia CLI's -faults flag. Directives:
//
//	slowcpu=NODE:CPU:FACTOR    slow one CPU by FACTOR (>= 1)
//	slownode=NODE:FACTOR       slow every CPU of a box
//	buslow=NODE:BUS:SCALE      scale one memory bus's bandwidth (0 < SCALE <= 1)
//	linkdown=NODE:SCALE        scale a box's internode capacity
//	flap=NODE:PERIOD:DUTY:DOWNSCALE  flapping link (virtual-time square wave)
//	fabric=NODE:SCALE          scale a box's cross-brick fabric capacity
//	nodedown=NODE              lose the box entirely
//	seed=N                     decorrelation seed for a stochastic noise overlay
//	transient                  node losses are retryable
//
// Worker-chaos directives (effective only with columbia -workers N):
//
//	wkill=M                    each worker dies while serving its point M+1 (M >= 0)
//	wcorrupt=N                 each worker corrupts its Nth reply frame (N >= 1)
//	wtrunc=N                   each worker truncates its Nth reply frame and exits (N >= 1)
//	wstall=M                   each worker hangs, heartbeats silenced, on its point M+1 (M >= 0)
//
// Example: "slownode=0:1.13,linkdown=1:0.25,nodedown=2,transient".
func Parse(spec string) (*Plan, error) {
	p := New()
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "transient" {
			p.MarkTransient()
			continue
		}
		name, argstr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fault: directive %q is not name=args or \"transient\"", part)
		}
		if name == "seed" {
			// Parsed as uint64, not through the float path: seeds use the
			// full 64-bit range and must round-trip exactly.
			n, err := strconv.ParseUint(strings.TrimSpace(argstr), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: directive %q: seed must be a non-negative integer", part)
			}
			p.WithSeed(n)
			continue
		}
		// Every directive's first argument is a node index or a
		// worker-chaos count; slowcpu and buslow add a CPU or bus index.
		ints := 1
		if name == "slowcpu" || name == "buslow" {
			ints = 2
		}
		args, err := parseArgs(argstr, ints)
		if err != nil {
			return nil, fmt.Errorf("fault: directive %q: %v", part, err)
		}
		bad := func(want string) error {
			return fmt.Errorf("fault: directive %q: want %s=%s", part, name, want)
		}
		switch name {
		case "slowcpu":
			if len(args) != 3 {
				return nil, bad("NODE:CPU:FACTOR")
			}
			if args[2] < 1 {
				return nil, fmt.Errorf("fault: directive %q: factor must be >= 1", part)
			}
			p.SlowCPU(int(args[0]), int(args[1]), args[2])
		case "slownode":
			if len(args) != 2 {
				return nil, bad("NODE:FACTOR")
			}
			if args[1] < 1 {
				return nil, fmt.Errorf("fault: directive %q: factor must be >= 1", part)
			}
			p.SlowNode(int(args[0]), args[1])
		case "buslow":
			if len(args) != 3 {
				return nil, bad("NODE:BUS:SCALE")
			}
			if err := checkScale(args[2]); err != nil {
				return nil, fmt.Errorf("fault: directive %q: %v", part, err)
			}
			p.DegradeBus(int(args[0]), int(args[1]), args[2])
		case "linkdown":
			if len(args) != 2 {
				return nil, bad("NODE:SCALE")
			}
			if err := checkScale(args[1]); err != nil {
				return nil, fmt.Errorf("fault: directive %q: %v", part, err)
			}
			p.DegradeLink(int(args[0]), args[1])
		case "flap":
			if len(args) != 4 {
				return nil, bad("NODE:PERIOD:DUTY:DOWNSCALE")
			}
			if args[1] <= 0 {
				return nil, fmt.Errorf("fault: directive %q: period must be positive", part)
			}
			if args[2] < 0 || args[2] > 1 {
				return nil, fmt.Errorf("fault: directive %q: duty must be in [0, 1]", part)
			}
			if err := checkScale(args[3]); err != nil {
				return nil, fmt.Errorf("fault: directive %q: %v", part, err)
			}
			p.FlapLink(int(args[0]), args[1], args[2], args[3])
		case "fabric":
			if len(args) != 2 {
				return nil, bad("NODE:SCALE")
			}
			if err := checkScale(args[1]); err != nil {
				return nil, fmt.Errorf("fault: directive %q: %v", part, err)
			}
			p.DegradeFabric(int(args[0]), args[1])
		case "nodedown":
			if len(args) != 1 {
				return nil, bad("NODE")
			}
			p.LoseNode(int(args[0]))
		case "wkill":
			if len(args) != 1 {
				return nil, bad("POINTS")
			}
			p.KillWorker(int(args[0]))
		case "wcorrupt":
			if len(args) != 1 {
				return nil, bad("REPLY")
			}
			if args[0] < 1 {
				return nil, fmt.Errorf("fault: directive %q: reply index must be >= 1", part)
			}
			p.CorruptReply(int(args[0]))
		case "wtrunc":
			if len(args) != 1 {
				return nil, bad("REPLY")
			}
			if args[0] < 1 {
				return nil, fmt.Errorf("fault: directive %q: reply index must be >= 1", part)
			}
			p.TruncateReply(int(args[0]))
		case "wstall":
			if len(args) != 1 {
				return nil, bad("POINTS")
			}
			p.StallWorker(int(args[0]))
		default:
			return nil, fmt.Errorf("fault: unknown directive %q", name)
		}
	}
	return p, nil
}

// parseArgs parses a directive's colon-separated numbers, all of which
// must be finite. The first ints of them are indices or counts: each must
// also be integral, non-negative and within int range, so the int
// conversion is exact and the fingerprint re-parses to the same plan.
func parseArgs(s string, ints int) ([]float64, error) {
	fields := strings.Split(s, ":")
	out := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bad number %q", f)
		}
		//detlint:allow floatcmp integrality check on a just-parsed literal; Trunc of an integral float is exact
		if i < ints && (v != math.Trunc(v) || v < 0 || v >= -math.MinInt) {
			return nil, fmt.Errorf("index or count %q must be a non-negative integer within int range", f)
		}
		out[i] = v
	}
	return out, nil
}

func checkScale(s float64) error {
	if s <= 0 || s > 1 {
		return fmt.Errorf("scale %g must be in (0, 1]", s)
	}
	return nil
}
