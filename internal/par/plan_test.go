package par

import (
	"fmt"
	"math"
	"testing"

	"columbia/internal/machine"
)

// call is one point-to-point call a collective issued: a send with its size,
// or a receive (whose size only the sender knows).
type call struct {
	send      bool
	peer, tag int
	bytes     float64
}

// tapeComm records the point-to-point calls of one rank without
// communicating. A receive returns a vector derived from its peer, tag and
// position on the tape, so an Allreduce's result depends on which
// receives combine and which replace, and in what order.
type tapeComm struct {
	rank, size, n int
	tape          []call
}

func (c *tapeComm) Rank() int { return c.rank }
func (c *tapeComm) Size() int { return c.size }
func (c *tapeComm) Send(dst, tag int, data []float64) {
	c.tape = append(c.tape, call{true, dst, tag, float64(8 * len(data))})
}
func (c *tapeComm) SendBytes(dst, tag int, bytes float64) {
	c.tape = append(c.tape, call{true, dst, tag, bytes})
}
func (c *tapeComm) Recv(src, tag int) []float64 {
	c.tape = append(c.tape, call{false, src, tag, 0})
	out := make([]float64, c.n)
	for i := range out {
		out[i] = float64(src*31+tag%97+i) / float64(len(c.tape))
	}
	return out
}
func (c *tapeComm) RecvBytes(src, tag int) float64 {
	c.tape = append(c.tape, call{false, src, tag, 0})
	return 0
}
func (c *tapeComm) Compute(machine.Work) {}
func (c *tapeComm) Barrier()             {}
func (c *tapeComm) Now() float64         { return 0 }

// TestPlansMatchLoops: for every rank of every job size from 1 to 130, the
// plan of each collective issues exactly the (send/recv, peer, tag, bytes)
// sequence of the hand-written loop it replaced, kept below as an oracle,
// and an Allreduce plan returns a bit-identical vector.
func TestPlansMatchLoops(t *testing.T) {
	data := []float64{1.5, -2, 3.25}
	cases := []struct {
		name       string
		plan, loop func(Comm) []float64
	}{
		{"AllreduceBytes",
			func(c Comm) []float64 { AllreduceBytes(c, 4096); return nil },
			func(c Comm) []float64 { loopAllreduceBytes(c, 4096); return nil }},
		{"AlltoallBytes",
			func(c Comm) []float64 { AlltoallBytes(c, 512); return nil },
			func(c Comm) []float64 { loopAlltoallBytes(c, 512); return nil }},
		{"Allreduce/SumOp",
			func(c Comm) []float64 { return Allreduce(c, data, SumOp) },
			func(c Comm) []float64 { return loopAllreduce(c, data, SumOp) }},
		{"Allreduce/MaxOp",
			func(c Comm) []float64 { return Allreduce(c, data, MaxOp) },
			func(c Comm) []float64 { return loopAllreduce(c, data, MaxOp) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for p := 1; p <= 130; p++ {
				for rank := 0; rank < p; rank++ {
					pc := &tapeComm{rank: rank, size: p, n: len(data)}
					lc := &tapeComm{rank: rank, size: p, n: len(data)}
					got, want := tc.plan(pc), tc.loop(lc)
					if err := sameTape(pc.tape, lc.tape); err != nil {
						t.Fatalf("P=%d rank %d: %v", p, rank, err)
					}
					if fmt.Sprint(bits(got)) != fmt.Sprint(bits(want)) {
						t.Fatalf("P=%d rank %d: result %v, loop %v", p, rank, got, want)
					}
				}
			}
		})
	}
}

func sameTape(got, want []call) error {
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return fmt.Errorf("plan stops after %d calls; loop's call %d is %+v", len(got), i, want[i])
		case i >= len(want):
			return fmt.Errorf("loop stops after %d calls; plan's call %d is %+v", len(want), i, got[i])
		case got[i] != want[i]:
			return fmt.Errorf("call %d: plan %+v, loop %+v", i, got[i], want[i])
		}
	}
	return nil
}

func bits(v []float64) []uint64 {
	if v == nil {
		return nil
	}
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// loopAllreduce is Allreduce as a hand-written loop, before plans.
func loopAllreduce(c Comm, data []float64, op Op) []float64 {
	rank, p := c.Rank(), c.Size()
	acc := make([]float64, len(data))
	copy(acc, data)
	if p == 1 {
		return acc
	}
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	extra := p - pof2
	core := -1
	switch {
	case rank < 2*extra && rank%2 == 0:
		c.Send(rank+1, tagFold, acc)
	case rank < 2*extra:
		op(acc, c.Recv(rank-1, tagFold))
		core = rank / 2
	default:
		core = rank - extra
	}
	if core >= 0 {
		step := 0
		for mask := 1; mask < pof2; mask <<= 1 {
			peerCore := core ^ mask
			peer := peerCore*2 + 1
			if peerCore >= extra {
				peer = peerCore + extra
			}
			c.Send(peer, tagAllreduce+step, acc)
			op(acc, c.Recv(peer, tagAllreduce+step))
			step++
		}
	}
	switch {
	case rank < 2*extra && rank%2 == 0:
		acc = c.Recv(rank+1, tagFold+1)
	case rank < 2*extra:
		c.Send(rank-1, tagFold+1, acc)
	}
	return acc
}

// loopAllreduceBytes is AllreduceBytes as a hand-written loop, before plans.
func loopAllreduceBytes(c Comm, bytes float64) {
	rank, p := c.Rank(), c.Size()
	if p == 1 {
		return
	}
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	extra := p - pof2
	core := -1
	switch {
	case rank < 2*extra && rank%2 == 0:
		c.SendBytes(rank+1, tagFold, bytes)
	case rank < 2*extra:
		c.RecvBytes(rank-1, tagFold)
		core = rank / 2
	default:
		core = rank - extra
	}
	if core >= 0 {
		step := 0
		for mask := 1; mask < pof2; mask <<= 1 {
			peerCore := core ^ mask
			peer := peerCore*2 + 1
			if peerCore >= extra {
				peer = peerCore + extra
			}
			c.SendBytes(peer, tagAllreduce+step, bytes)
			c.RecvBytes(peer, tagAllreduce+step)
			step++
		}
	}
	switch {
	case rank < 2*extra && rank%2 == 0:
		c.RecvBytes(rank+1, tagFold+1)
	case rank < 2*extra:
		c.SendBytes(rank-1, tagFold+1, bytes)
	}
}

// loopAlltoallBytes is AlltoallBytes as a hand-written loop, before plans.
func loopAlltoallBytes(c Comm, perPair float64) {
	rank, p := c.Rank(), c.Size()
	for step := 1; step < p; step++ {
		dst := (rank + step) % p
		src := (rank - step + p) % p
		c.SendBytes(dst, tagAlltoall+step, perPair)
		c.RecvBytes(src, tagAlltoall+step)
	}
}
