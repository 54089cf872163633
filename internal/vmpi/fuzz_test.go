package vmpi

import (
	"context"
	"fmt"
	"testing"

	"columbia/internal/machine"
	"columbia/internal/par"
)

// fuzzOps caps the interpreted program length so every generated run
// terminates quickly; a deadlocking program is detected, not waited out.
const fuzzOps = 64

// fuzzProgram interprets a byte string as a small SPMD rank program over
// sends, receives (directed and wildcard), barriers, ring shifts and
// compute. Every rank runs the same op list, but destinations, tags and
// byte counts are rank- and argument-dependent, so the generated traffic
// exercises eager directed completion, deferred wildcard matching, FIFO
// mailbox order, mismatched tags (deadlocks) and unmatched sends
// (sanitizer findings).
func fuzzProgram(ops []byte) func(par.Comm) {
	return func(c par.Comm) {
		rank, size := c.Rank(), c.Size()
		clock := c.(Clock)
		any := c.(interface{ RecvAny(int) (int, []float64) })
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%6, int(ops[i+1])
			switch op {
			case 0: // compute: ranks drift apart by different amounts
				clock.Elapse(float64(arg%16+1+rank) * 1e-6)
			case 1: // directed send, possibly to self, tag from arg
				c.SendBytes(arg%size, arg%4, float64(arg+1)*64)
			case 2: // directed receive; mismatched traffic deadlocks
				c.RecvBytes(arg%size, arg%4)
			case 3: // barrier: aligned, every rank runs the same list
				c.Barrier()
			case 4: // ring shift with payload: always matched
				c.Send((rank+1)%size, 9, []float64{float64(rank), float64(arg)})
				c.Recv((rank+size-1)%size, 9)
			case 5: // gather to rank 0 via wildcard receives
				if rank == 0 {
					for s := 1; s < size; s++ {
						any.RecvAny(7)
					}
				} else {
					c.SendBytes(0, 7, float64(arg%256+1)*8)
				}
			}
		}
	}
}

// runFuzzProgram runs one interpreted program under the pick check and
// returns the mismatches it reported. How the run ends does not matter:
// deadlocks and sanitizer failures are picks too.
func runFuzzProgram(program []byte, sanitize bool) []error {
	procs := 2 + int(program[0])%6
	ops := program[1:]
	if len(ops) > 2*fuzzOps {
		ops = ops[:2*fuzzOps]
	}
	cfg := Config{
		Cluster:  machine.NewSingleNode(machine.Altix3700),
		Procs:    procs,
		Sanitize: sanitize,
	}
	var bad []error
	RunCtx(collectMismatches(context.Background(), &bad), cfg, fuzzProgram(ops))
	return bad
}

// FuzzEngineEquivalence generates random small rank programs and runs each
// once under the pick check, plain and under the communication sanitizer:
// every pick the calendar makes must be the rank, at the time, that the
// O(P) scan of every rank defines. This checks every scheduling decision
// the calendar heap makes (the running rank's in-place re-key, the
// removals when a rank blocks or exits, the wildcard wake's decrease-key,
// the events set in send and barrier), up to the pick that ends a run in a
// deadlock. The seeded corpus under testdata/fuzz covers every op the
// interpreter knows, so a plain `go test` run replays the interesting
// shapes without requiring -fuzz.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add([]byte{0})                                  // trivial: ranks finish immediately
	f.Add([]byte{2, 0, 5, 1, 9, 3, 3})                // compute drift + aligned barriers
	f.Add([]byte{4, 4, 0, 4, 17, 4, 250})             // ring shifts with payload
	f.Add([]byte{6, 5, 0, 0, 3, 5, 11})               // wildcard gather between compute drift
	f.Add([]byte{3, 1, 5, 0, 2, 2, 5})                // crossing directed sends and recvs
	f.Add([]byte{5, 2, 9})                            // recv with no send: deadlock
	f.Add([]byte{4, 1, 6, 3, 128})                    // unmatched send, then barrier
	f.Add([]byte{7, 5, 1, 5, 2, 0, 7, 3, 3, 4, 42})   // gathers, compute, barrier, ring
	f.Add([]byte{2, 1, 2, 2, 2, 0, 9, 4, 3, 1, 255})  // send/recv pairs with tag collisions
	f.Add([]byte{8, 0, 1, 5, 200, 3, 0, 5, 3, 2, 17}) // wide ranks: gather + deadlock mix
	f.Add([]byte{0, 0, 3, 4, 7})                      // drift, then a ring: rank 0's receive is posted before rank 1 sends
	f.Add([]byte{3, 4, 1, 0, 5, 4, 2, 4, 3})          // ring shifts: each (dst, src, 9) key drains and refills in one run
	f.Add([]byte{1, 3, 0, 5, 0})                      // barrier, gather: the last rank in sends first, a nearer rank's later send lowers rank 0's wake
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) == 0 {
			t.Skip()
		}
		for _, sanitize := range []bool{false, true} {
			requireAgreement(t, fmt.Sprintf("program %v (sanitize=%v)", program, sanitize), runFuzzProgram(program, sanitize))
		}
	})
}
