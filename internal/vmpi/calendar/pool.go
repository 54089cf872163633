package calendar

import "sync"

// SharedPool is the concurrency-safe counterpart of FreeList: a typed free
// list for state that is recycled *across* engine runs rather than within
// one. Each Get hands exclusive ownership of the *T to the caller until it
// is Put back, so concurrent sweep workers each run on a private instance.
//
// It is deliberately NOT a sync.Pool: sync.Pool empties itself every GC
// cycle, and the sweep's parallel mode — many engines in flight, hence
// many pooled instances checked out and frequent collections — was
// observed to lose its warmed-up scratch state exactly when reuse matters
// most, re-paying the build cost of thousands of rank records per run. A
// mutex-guarded LIFO keeps instances alive for the life of the process;
// Get/Put run once per engine run (not per message), so the lock is
// nowhere near any hot path. The list is capped: the steady state holds
// about as many instances as the peak number of concurrent runs, and Put
// refuses anything beyond the cap, for the caller to release.
//
// Like FreeList, Put does not zero the struct — the whole point is to keep
// grown slices, maps and channels warm — so the caller must reset whatever
// state the next user may observe.
type SharedPool[T any] struct {
	mu   sync.Mutex
	free []*T
}

// sharedPoolCap bounds retained instances; see the type comment.
const sharedPoolCap = 32

// Get returns a recycled *T, or a new zero-valued one when none is pooled.
// The pool-hit path allocates nothing, as
// TestSharedPoolWarmCycleAllocatesNothing pins.
func (p *SharedPool[T]) Get() *T {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	return new(T)
}

// Put recycles v for a later Get and reports whether the pool took it. nil
// is ignored; when the pool is already at capacity Put returns false and v
// stays the caller's, to release whatever it holds.
func (p *SharedPool[T]) Put(v *T) bool {
	if v == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) >= sharedPoolCap {
		return false
	}
	p.free = append(p.free, v)
	return true
}
