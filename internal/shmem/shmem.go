// Package shmem implements the one-sided SGI SHMEM programming layer the
// paper lists among Columbia's supported paradigms (§2) and names as future
// work ("we will also experiment with the SHMEM library, including porting
// INS3D to use it"). Puts and gets move data directly between partitioned
// global address spaces without a matching receive, so — unlike MPI — a
// transfer costs one traversal of the fabric with no rendezvous handshake.
//
// Two layers, mirroring the rest of the repository:
//
//   - a real engine: each PE's symmetric heap is a slice registry and
//     Put/Get are direct memory copies with a release/acquire fence, run on
//     goroutine PEs;
//   - a cost model: Put/Get times on the simulated Columbia, one latency
//     plus serialization, with the MPI-vs-SHMEM latency advantage exposed
//     for the INS3D port exploration (see CompareINS3DBoundary).
package shmem

import (
	"fmt"
	"math"
	"sync"

	"columbia/internal/machine"
	"columbia/internal/netmodel"
	"columbia/internal/par"
)

// PE is one processing element's handle: rank, world size and the shared
// symmetric-heap registry.
type PE struct {
	rank int
	size int
	job  *job
}

type symKey struct {
	pe   int
	name string
}

type job struct {
	size int
	mu   sync.RWMutex
	heap map[symKey][]float64
	bar  *par.CyclicBarrier
}

// Run starts n PEs and blocks until all return.
func Run(n int, fn func(*PE)) {
	if n < 1 {
		panic("shmem: need at least one PE")
	}
	j := &job{size: n, heap: make(map[symKey][]float64), bar: par.NewCyclicBarrier(n)}
	var wg sync.WaitGroup
	panics := make(chan interface{}, n)
	for pe := 0; pe < n; pe++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- fmt.Sprintf("PE %d: %v", rank, p)
				}
			}()
			fn(&PE{rank: rank, size: n, job: j})
		}(pe)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// MyPE returns the PE's rank.
func (p *PE) MyPE() int { return p.rank }

// NPEs returns the world size.
func (p *PE) NPEs() int { return p.size }

// Alloc creates (or replaces) a named symmetric array on this PE and
// returns it. Symmetric allocation requires every PE to Alloc the same
// name; a barrier afterwards (as in real SHMEM's shmalloc) makes it safe to
// address remotely.
func (p *PE) Alloc(name string, n int) []float64 {
	buf := make([]float64, n)
	p.job.mu.Lock()
	p.job.heap[symKey{p.rank, name}] = buf
	p.job.mu.Unlock()
	return buf
}

func (p *PE) remote(pe int, name string) []float64 {
	p.job.mu.RLock()
	buf := p.job.heap[symKey{pe, name}]
	p.job.mu.RUnlock()
	if buf == nil {
		panic(fmt.Sprintf("shmem: PE %d has no symmetric object %q", pe, name))
	}
	return buf
}

// Put copies src into the remote PE's symmetric array starting at offset —
// one-sided: the target does not participate.
func (p *PE) Put(pe int, name string, offset int, src []float64) {
	dst := p.remote(pe, name)
	p.job.mu.Lock()
	copy(dst[offset:], src)
	p.job.mu.Unlock()
}

// Get copies from the remote PE's symmetric array into dst.
func (p *PE) Get(pe int, name string, offset int, dst []float64) {
	src := p.remote(pe, name)
	p.job.mu.RLock()
	copy(dst, src[offset:])
	p.job.mu.RUnlock()
}

// Fence orders this PE's preceding puts (a release fence; trivially strong
// here because Put is synchronous).
func (p *PE) Fence() {}

// BarrierAll synchronizes every PE and makes all puts visible.
func (p *PE) BarrierAll() { p.job.bar.Await() }

// --- Cost model ---

// Model prices one-sided operations on the simulated machine.
type Model struct {
	Net *netmodel.Model
}

// NewModel wraps an interconnect model.
func NewModel(cl *machine.Cluster) *Model { return &Model{Net: netmodel.New(cl)} }

// shmemLatencyFraction is the fraction of the MPI point-to-point latency a
// one-sided put pays: no matching, no rendezvous, no tag lookup — the SHUB
// performs the remote write directly. [calibrated]
const shmemLatencyFraction = 0.45

// PutTime returns the modelled time for n bytes from a to b.
func (m *Model) PutTime(a, b machine.Loc, n float64) float64 {
	return shmemLatencyFraction*m.Net.Latency(a, b) + n/m.Net.Bandwidth(a, b)
}

// GetTime returns the modelled time for a blocking get: a full round trip
// plus serialization.
func (m *Model) GetTime(a, b machine.Loc, n float64) float64 {
	return (1+shmemLatencyFraction)*m.Net.Latency(a, b) + n/m.Net.Bandwidth(a, b)
}

// MPITime is the two-sided reference for the same transfer.
func (m *Model) MPITime(a, b machine.Loc, n float64) float64 {
	return m.Net.TransferTime(a, b, n)
}

// CompareINS3DBoundary estimates the per-sub-iteration boundary-exchange
// time of an INS3D-style overset update (surfacePts points, 5 variables)
// between two groups `span` CPUs apart, under MPI and under a SHMEM port —
// the experiment the paper defers to future work. Returns (mpi, shmem)
// seconds.
func (m *Model) CompareINS3DBoundary(surfacePts int, span int) (mpiT, shmemT float64) {
	cl := m.Net.C
	a := machine.Loc{Node: 0, CPU: 0}
	b := machine.Loc{Node: 0, CPU: span % cl.Nodes[0].Spec.CPUs}
	bytes := float64(surfacePts) * 5 * 8
	// MPI archives boundary data in ~64 KiB messages; SHMEM puts stream
	// directly from the solver arrays.
	const chunk = 64 * 1024
	msgs := math.Ceil(bytes / chunk)
	mpiT = msgs*m.Net.Latency(a, b) + bytes/m.Net.Bandwidth(a, b)
	shmemT = msgs*shmemLatencyFraction*m.Net.Latency(a, b) + bytes/m.Net.Bandwidth(a, b)
	return
}
