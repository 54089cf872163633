package par

// Collective operations built strictly from point-to-point messages so that
// interconnect effects (latency per hop, link bandwidth, internode capacity)
// propagate into collectives on the virtual-time engine exactly as they do
// into user messaging. Algorithms are the classical ones:
//
//	Bcast       binomial tree
//	Reduce      binomial tree (reversed)
//	Allreduce   reduce-to-root + broadcast for non-powers of two would lose
//	            half the bandwidth, so recursive doubling with a fold-in
//	            step for the non-power-of-two remainder is used instead
//	Allgather   ring
//	Alltoall    cyclic shift (p-1 rounds of send/recv)
//
// Each data-plane collective has a byte-plane twin used by the performance
// skeletons.
//
// Allreduce, AllreduceBytes and AlltoallBytes are defined as plans
// (plan.go): a per-rank sequence of send-then-receive steps that runPlan
// executes through Send and Recv, or hands whole to an engine that runs
// plans itself (PlanRunner). The vmpi engine does, so a rank in one of
// these collectives parks its coroutine at most once instead of at every
// receive that waits. They are the collectives worth it: on an
// instrumented copy of the serial paper sweep, 2,468,344 of its 3,429,419
// rank switches happened inside them (AllreduceBytes 1,405,895,
// AlltoallBytes 830,573, Allreduce 231,876), and with plans the sweep
// makes 1,208,596. The other collectives stay hand-written loops: the
// same instrumented sweep never switched ranks inside them.

// CollectiveAnnouncer is implemented by engines that verify collective
// agreement (the vmpi engine with Config.Sanitize set): every collective
// entry point announces itself before communicating, with an operand that
// must match across ranks — the root for rooted collectives, the byte (or
// element) count for the symmetric ones. Engines without the method pay
// nothing.
type CollectiveAnnouncer interface {
	AnnounceCollective(kind string, operand float64)
}

// announce reports a collective entry to the engine's sanitizer, if any.
func announce(c Comm, kind string, operand float64) {
	if a, ok := c.(CollectiveAnnouncer); ok {
		a.AnnounceCollective(kind, operand)
	}
}

// Op combines two equal-length vectors elementwise into dst.
type Op func(dst, src []float64)

// SumOp accumulates src into dst.
func SumOp(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// MaxOp keeps the elementwise maximum in dst.
func MaxOp(dst, src []float64) {
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// Bcast distributes root's data to every rank along a binomial tree and
// returns each rank's copy (root returns data itself).
func Bcast(c Comm, root int, data []float64) []float64 {
	announce(c, "Bcast", float64(root))
	rank, p := c.Rank(), c.Size()
	if p == 1 {
		return data
	}
	// Rotate ranks so the root is virtual rank 0.
	vr := (rank - root + p) % p
	var buf []float64
	if vr == 0 {
		buf = data
	}
	// Virtual rank vr receives from vr - lowestSetBit(vr)... classic
	// binomial: in round k (mask = 1<<k), ranks with vr < mask send to
	// vr + mask when it exists.
	received := vr == 0
	for mask := 1; mask < p; mask <<= 1 {
		if received {
			peer := vr + mask
			if vr < mask && peer < p {
				c.Send((peer+root)%p, tagBcast, buf)
			}
		} else if vr >= mask && vr < mask<<1 {
			buf = c.Recv((vr-mask+root)%p, tagBcast)
			received = true
		}
	}
	return buf
}

// BcastBytes performs the same binomial-tree pattern carrying only sizes.
func BcastBytes(c Comm, root int, bytes float64) {
	announce(c, "BcastBytes", float64(root))
	rank, p := c.Rank(), c.Size()
	if p == 1 {
		return
	}
	vr := (rank - root + p) % p
	received := vr == 0
	for mask := 1; mask < p; mask <<= 1 {
		if received {
			peer := vr + mask
			if vr < mask && peer < p {
				c.SendBytes((peer+root)%p, tagBcast, bytes)
			}
		} else if vr >= mask && vr < mask<<1 {
			c.RecvBytes((vr-mask+root)%p, tagBcast)
			received = true
		}
	}
}

// Reduce combines every rank's data with op down a binomial tree; the root
// returns the combined vector, other ranks return nil. data is not mutated.
func Reduce(c Comm, root int, data []float64, op Op) []float64 {
	announce(c, "Reduce", float64(root))
	rank, p := c.Rank(), c.Size()
	acc := make([]float64, len(data))
	copy(acc, data)
	if p == 1 {
		return acc
	}
	vr := (rank - root + p) % p
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			c.Send((vr-mask+root)%p, tagReduce, acc)
			return nil
		}
		peer := vr + mask
		if peer < p {
			op(acc, c.Recv((peer+root)%p, tagReduce))
		}
	}
	return acc
}

// Allreduce combines every rank's vector with op and returns the result on
// all ranks, using recursive doubling with a non-power-of-two fold-in
// (allreducePlan).
func Allreduce(c Comm, data []float64, op Op) []float64 {
	announce(c, "Allreduce", float64(8*len(data)))
	acc := make([]float64, len(data))
	copy(acc, data)
	return runPlan(c, allreducePlan(c.Rank(), c.Size(), 0, acc, op))
}

// AllreduceBytes runs the recursive-doubling pattern carrying only sizes.
func AllreduceBytes(c Comm, bytes float64) {
	announce(c, "AllreduceBytes", bytes)
	runPlan(c, allreducePlan(c.Rank(), c.Size(), bytes, nil, nil))
}

// AllreduceSum is the common scalar-vector special case.
func AllreduceSum(c Comm, data []float64) []float64 {
	return Allreduce(c, data, SumOp)
}

// Allgather concatenates every rank's equal-length contribution in rank
// order using a ring, returning the full vector on all ranks.
func Allgather(c Comm, data []float64) []float64 {
	announce(c, "Allgather", float64(8*len(data)))
	rank, p := c.Rank(), c.Size()
	n := len(data)
	out := make([]float64, n*p)
	copy(out[rank*n:], data)
	if p == 1 {
		return out
	}
	right := (rank + 1) % p
	left := (rank - 1 + p) % p
	chunk := rank
	for step := 0; step < p-1; step++ {
		c.Send(right, tagAllgather+step, out[chunk*n:(chunk+1)*n])
		chunk = (chunk - 1 + p) % p
		got := c.Recv(left, tagAllgather+step)
		copy(out[chunk*n:], got)
	}
	return out
}

// AllgatherBytes runs the ring pattern carrying only sizes.
func AllgatherBytes(c Comm, bytes float64) {
	announce(c, "AllgatherBytes", bytes)
	rank, p := c.Rank(), c.Size()
	if p == 1 {
		return
	}
	right := (rank + 1) % p
	left := (rank - 1 + p) % p
	for step := 0; step < p-1; step++ {
		c.SendBytes(right, tagAllgather+step, bytes)
		c.RecvBytes(left, tagAllgather+step)
	}
}

// Alltoall performs a complete exchange: chunks[d] goes to rank d, and the
// returned slice holds what every rank sent to this one (index by source).
// Uses the cyclic-shift algorithm: p-1 rounds of disjoint pairwise traffic.
func Alltoall(c Comm, chunks [][]float64) [][]float64 {
	rank, p := c.Rank(), c.Size()
	if len(chunks) != p {
		panic("par: Alltoall needs one chunk per rank")
	}
	var total float64
	for _, ch := range chunks {
		total += float64(8 * len(ch))
	}
	announce(c, "Alltoall", total)
	out := make([][]float64, p)
	own := make([]float64, len(chunks[rank]))
	copy(own, chunks[rank])
	out[rank] = own
	for step := 1; step < p; step++ {
		dst := (rank + step) % p
		src := (rank - step + p) % p
		c.Send(dst, tagAlltoall+step, chunks[dst])
		out[src] = c.Recv(src, tagAlltoall+step)
	}
	return out
}

// AlltoallBytes runs the cyclic-shift exchange (alltoallPlan) with
// perPair bytes between every pair of ranks.
func AlltoallBytes(c Comm, perPair float64) {
	announce(c, "AlltoallBytes", perPair)
	runPlan(c, alltoallPlan(c.Rank(), c.Size(), perPair))
}
