package par

import (
	"fmt"
	"sync"
	"time"

	"columbia/internal/machine"
)

// realComm is the wall-clock engine: ranks are goroutines and messages move
// through buffered channels (asynchronous-complete sends). It is
// intentionally simple — its job is numerical validation and real-machine
// benches, not performance modelling.
type realComm struct {
	rank int
	size int
	job  *realJob
}

type realMsg struct {
	data  []float64
	bytes float64
}

type realJob struct {
	size  int
	clock Clock
	start time.Time
	// mailboxes maps a (src, dst, tag) triple to its traffic channel.
	// Channels are created lazily under mu.
	mu        sync.Mutex
	mailboxes map[mailKey]chan realMsg
	barrier   *CyclicBarrier
}

type mailKey struct {
	src, dst, tag int
}

func (j *realJob) box(src, dst, tag int) chan realMsg {
	j.mu.Lock()
	defer j.mu.Unlock()
	k := mailKey{src, dst, tag}
	ch, ok := j.mailboxes[k]
	if !ok {
		// Buffered: sends complete asynchronously, matching the
		// buffered-send semantics of the virtual-time engine, so the
		// same pattern code deadlocks (or not) identically on both.
		ch = make(chan realMsg, 1024)
		j.mailboxes[k] = ch
	}
	return ch
}

// CyclicBarrier is a reusable n-party barrier: the real engine's
// Comm.Barrier, and the one shmem and mlp synchronize on.
type CyclicBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     int
}

// NewCyclicBarrier returns a barrier for n parties.
func NewCyclicBarrier(n int) *CyclicBarrier {
	b := &CyclicBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Await blocks until all n parties have called it, then releases them
// together; the barrier is then ready for the next round.
func (b *CyclicBarrier) Await() {
	b.mu.Lock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// Clock supplies the engine's notion of the current time. Comm.Now
// readings are taken against it, so injecting a fake makes elapsed-time
// values deterministic in tests; production runs use time.Now.
type Clock func() time.Time

// Run executes fn concurrently on n ranks using the real engine and blocks
// until all ranks return. Panics in rank functions propagate. Elapsed
// time is measured on the wall clock; tests needing deterministic Now
// values use RunWithClock.
func Run(n int, fn func(Comm)) {
	RunWithClock(n, time.Now, fn)
}

// RunWithClock is Run with an injected time source, the only seam through
// which wall-clock time enters this engine.
func RunWithClock(n int, clock Clock, fn func(Comm)) {
	if n < 1 {
		panic("par: job needs at least one rank")
	}
	job := &realJob{
		size:      n,
		clock:     clock,
		start:     clock(),
		mailboxes: make(map[mailKey]chan realMsg),
		barrier:   NewCyclicBarrier(n),
	}
	var wg sync.WaitGroup
	panics := make(chan interface{}, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- fmt.Sprintf("rank %d: %v", rank, p)
				}
			}()
			fn(&realComm{rank: rank, size: n, job: job})
		}(r)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

func (c *realComm) Rank() int { return c.rank }
func (c *realComm) Size() int { return c.size }

func (c *realComm) checkPeer(peer int) {
	if peer < 0 || peer >= c.size {
		panic(fmt.Sprintf("par: peer rank %d out of range [0,%d)", peer, c.size))
	}
}

func (c *realComm) Send(dst, tag int, data []float64) {
	c.checkPeer(dst)
	cp := make([]float64, len(data))
	copy(cp, data)
	c.job.box(c.rank, dst, tag) <- realMsg{data: cp, bytes: float64(8 * len(data))}
}

func (c *realComm) Recv(src, tag int) []float64 {
	c.checkPeer(src)
	m := <-c.job.box(src, c.rank, tag)
	return m.data
}

func (c *realComm) SendBytes(dst, tag int, bytes float64) {
	c.checkPeer(dst)
	c.job.box(c.rank, dst, tag) <- realMsg{bytes: bytes}
}

func (c *realComm) RecvBytes(src, tag int) float64 {
	c.checkPeer(src)
	m := <-c.job.box(src, c.rank, tag)
	return m.bytes
}

func (c *realComm) Compute(machine.Work) {}

func (c *realComm) Barrier() { c.job.barrier.Await() }

func (c *realComm) Now() float64 { return c.job.clock().Sub(c.job.start).Seconds() }
