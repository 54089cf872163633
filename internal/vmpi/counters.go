package vmpi

import (
	"context"
	"sync/atomic"
)

// Counters accumulates the engine's work over every run started under a
// context that carries it (WithCounters). Each count is a property of the
// simulated program and the engine's code alone — the host's speed, load
// and core count cannot move it — so a change that claims to save work can
// show the saving as a count. Counting never touches a Result, a
// fingerprint or the wire.
//
// A run adds its counts once, when it ends, so concurrent runs may share
// one Counters.
type Counters struct {
	// Picks counts the ranks next chose to run.
	Picks atomic.Int64
	// Parks counts coroutine switches out of a rank whose program has not
	// returned: a yield whose pick is another rank, and a collective plan
	// handed to the driver loop. A program's return, once per rank and
	// run, is not counted.
	Parks atomic.Int64
	// SelfContinues counts yields whose pick was the yielding rank, which
	// keeps running without a switch.
	SelfContinues atomic.Int64
	// Sends counts messages sent; Handoffs counts those delivered straight
	// to a receiver already blocked on them.
	Sends    atomic.Int64
	Handoffs atomic.Int64
}

// work is one run's counts, kept in plain fields on the engine; exactly
// one of the driver and the rank coroutines runs at a time.
type work struct {
	picks, parks, selfs, sends, handoffs int64
}

// add folds one run's counts into c; a nil c counts nothing.
func (c *Counters) add(w *work) {
	if c == nil {
		return
	}
	c.Picks.Add(w.picks)
	c.Parks.Add(w.parks)
	c.SelfContinues.Add(w.selfs)
	c.Sends.Add(w.sends)
	c.Handoffs.Add(w.handoffs)
}

type countersCtxKey struct{}

// WithCounters returns a context under which every RunCtx adds its work
// counts to c when it ends, the way WithArena installs an arena.
func WithCounters(ctx context.Context, c *Counters) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, countersCtxKey{}, c)
}

// countersFrom extracts the counters installed by WithCounters, if any.
func countersFrom(ctx context.Context) *Counters {
	c, _ := ctx.Value(countersCtxKey{}).(*Counters)
	return c
}
