package par

// Step is one step of a collective plan: a send to To, then a receive from
// From, both under Tag. A negative To or From leaves that half out.
type Step struct {
	To, From, Tag int
	// Combine marks an Allreduce receive that folds the payload into the
	// accumulator with the plan's Op; any other data receive replaces the
	// accumulator. Byte plans ignore it.
	Combine bool
}

type planKind uint8

const (
	planAllreduce planKind = iota
	planAlltoall
)

// Plan is one rank's part of a collective, as a sequence of steps computed
// on demand from the rank, the job size and the step index, so a plan is a
// small value that never allocates. Every send of a plan carries the same
// payload: the accumulator of an Allreduce plan, or a fixed byte count.
//
// Plans are how a collective is defined once for every engine: runPlan
// executes a plan through Send and Recv, unless the comm runs plans itself
// (PlanRunner).
type Plan struct {
	kind       planKind
	data       bool // Allreduce: every send carries acc, every receive fills it
	rank, size int
	// Recursive-doubling geometry (planAllreduce): the ranks beyond the
	// largest power of two, this rank's core id (-1 for a rank that folds
	// in and sits the rounds out) and the number of doubling rounds.
	extra, core, rounds int
	n                   int
	bytes               float64
	acc                 []float64
	op                  Op
}

// PlanRunner is implemented by engines that execute a collective plan
// themselves instead of through Send and Recv: the vmpi engine runs a
// rank's remaining steps in its driver loop, so the rank's coroutine parks
// at most once per collective instead of at every receive that waits.
// RunPlan must perform exactly the sends and receives runPlan's loop
// would, in order, and return p's Result.
type PlanRunner interface {
	RunPlan(p Plan) []float64
}

// runPlan executes p on c and returns its result.
func runPlan(c Comm, p Plan) []float64 {
	if p.n == 0 {
		return p.acc
	}
	if r, ok := c.(PlanRunner); ok {
		return r.RunPlan(p)
	}
	for i := 0; i < p.n; i++ {
		s := p.Step(i)
		if s.To >= 0 {
			if p.data {
				c.Send(s.To, s.Tag, p.acc)
			} else {
				c.SendBytes(s.To, s.Tag, p.bytes)
			}
		}
		if s.From >= 0 {
			if p.data {
				p.Receive(s, c.Recv(s.From, s.Tag))
			} else {
				c.RecvBytes(s.From, s.Tag)
			}
		}
	}
	return p.acc
}

// allreducePlan is recursive doubling with a fold-in for the
// non-power-of-two remainder: the first 2*extra ranks pair up, evens hand
// their vector to odds and sit the doubling rounds out, and odds return
// the final vector to their evens at the end. acc is nil for a byte plan.
func allreducePlan(rank, size int, bytes float64, acc []float64, op Op) Plan {
	p := Plan{kind: planAllreduce, data: acc != nil, rank: rank, size: size, bytes: bytes, acc: acc, op: op}
	pof2 := 1
	for pof2*2 <= size {
		pof2 *= 2
		p.rounds++
	}
	p.extra = size - pof2
	switch {
	case rank < 2*p.extra && rank%2 == 0:
		p.core, p.n = -1, 2
	case rank < 2*p.extra:
		p.core, p.n = rank/2, p.rounds+2
	default:
		p.core, p.n = rank-p.extra, p.rounds
	}
	return p
}

// alltoallPlan is the cyclic-shift exchange: in step s (1 ≤ s < size) each
// rank sends to rank+s and receives from rank-s, so every step's traffic is
// a set of disjoint pairs.
func alltoallPlan(rank, size int, bytes float64) Plan {
	return Plan{kind: planAlltoall, rank: rank, size: size, n: size - 1, bytes: bytes}
}

// Len returns the number of steps.
func (p *Plan) Len() int { return p.n }

// Step returns step i, 0 ≤ i < Len.
func (p *Plan) Step(i int) Step {
	if p.kind == planAlltoall {
		s := i + 1
		return Step{To: (p.rank + s) % p.size, From: (p.rank - s + p.size) % p.size, Tag: tagAlltoall + s}
	}
	switch {
	case p.core < 0: // an even fold rank: hand the vector over, get the result back
		if i == 0 {
			return Step{To: p.rank + 1, From: -1, Tag: tagFold}
		}
		return Step{To: -1, From: p.rank + 1, Tag: tagFold + 1}
	case p.rank < 2*p.extra: // an odd fold rank: fold in, double, fold out
		if i == 0 {
			return Step{To: -1, From: p.rank - 1, Tag: tagFold, Combine: true}
		}
		if i == p.n-1 {
			return Step{To: p.rank - 1, From: -1, Tag: tagFold + 1}
		}
		i--
	}
	peerCore := p.core ^ (1 << i)
	peer := peerCore*2 + 1
	if peerCore >= p.extra {
		peer = peerCore + p.extra
	}
	return Step{To: peer, From: peer, Tag: tagAllreduce + i, Combine: true}
}

// Payload returns what every send of the plan carries: the byte count, and
// for an Allreduce plan the accumulator as it stands.
func (p *Plan) Payload() (bytes float64, data []float64) {
	if p.data {
		return float64(8 * len(p.acc)), p.acc
	}
	return p.bytes, nil
}

// Receive folds the payload of step s's receive into the plan: combined
// into the accumulator with the Op, or replacing it. Byte plans keep
// nothing.
func (p *Plan) Receive(s Step, data []float64) {
	switch {
	case !p.data:
	case s.Combine:
		p.op(p.acc, data)
	default:
		p.acc = data
	}
}

// Result returns the plan's outcome: the accumulator of an Allreduce plan,
// nil for a byte plan.
func (p *Plan) Result() []float64 { return p.acc }
