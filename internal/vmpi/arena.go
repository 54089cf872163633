package vmpi

import (
	"context"
	"runtime"
	"sync"
)

// Arena is a private allocation domain for engine runs. A run started
// under WithArena draws its scratch state — rank records, mailbox and
// index storage, message free list, calendar, occupancy clocks and the
// payload slab — from the arena instead of the process-wide scratch pool,
// and a clean completion hands the scratch back to the same arena.
//
// What carries over is storage, never simulation state: a run's mailboxes
// are retired when the next run acquires the scratch (see mailIndex), so a
// lookup costs the same whatever the arena ran before. What an arena buys
// is that a caller running one point at a time re-runs on storage it
// grew itself, without taking the shared pool's lock. Sweep leaves run
// without one and share the process-wide pool (DESIGN.md §9).
//
// An arena holds at most one scratch; it is meant to back one lane that
// runs one point at a time. Concurrent runs under the same arena are safe
// but pointless: whoever acquires first gets the scratch, everyone else
// falls through to the process-wide pool.
//
// The held scratch keeps its rank coroutines parked. When the arena itself
// becomes unreachable, a finalizer halts them; a parked coroutine never
// references its arena, so the arena can become unreachable while they
// live. Create arenas with NewArena, which installs that finalizer.
type Arena struct {
	mu  sync.Mutex
	scr *engineScratch
}

// NewArena returns an empty arena; its first run builds the scratch the
// arena then keeps recycling.
func NewArena() *Arena {
	a := &Arena{}
	runtime.SetFinalizer(a, (*Arena).release)
	return a
}

// release halts the coroutines of the scratch a dropped arena still holds.
func (a *Arena) release() {
	if s := a.take(); s != nil {
		s.dropRanks(0)
	}
}

// take detaches the arena's scratch, or returns nil when it is empty or
// checked out.
func (a *Arena) take() *engineScratch {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	s := a.scr
	a.scr = nil
	a.mu.Unlock()
	return s
}

// put offers a scratch back; reports false when the arena is already full
// (a concurrent run returned first) so the caller can fall back to the
// process-wide pool.
func (a *Arena) put(s *engineScratch) bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.scr != nil {
		return false
	}
	a.scr = s
	return true
}

type arenaCtxKey struct{}

// WithArena returns a context under which RunCtx draws engine scratch
// state from a rather than the process-wide pool. Nothing in the sweep
// installs one; a caller that runs points on lanes of its own may keep an
// arena per lane.
func WithArena(ctx context.Context, a *Arena) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, arenaCtxKey{}, a)
}

// arenaFrom extracts the arena installed by WithArena, if any.
func arenaFrom(ctx context.Context) *Arena {
	a, _ := ctx.Value(arenaCtxKey{}).(*Arena)
	return a
}
