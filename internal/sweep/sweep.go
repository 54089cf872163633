package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Options configures a Pool's execution policy beyond its concurrency
// bound: a per-attempt wall-clock budget, and a bounded retry loop for
// failures that report themselves retryable (vmpi timeouts, transient
// faults).
type Options struct {
	// Workers is the pool's -j degree: the cap on concurrent leaf points.
	// The cap is additionally clamped to GOMAXPROCS, so a -j above the core
	// count never oversubscribes the host; Pool.Workers still reports the
	// configured value. Values below 1 select GOMAXPROCS.
	Workers int
	// Timeout is the wall-clock budget for one attempt of one leaf point;
	// zero means no per-point deadline. Expired attempts surface as a
	// retryable error (vmpi maps the deadline to ErrTimeout).
	Timeout time.Duration
	// MaxRetries is how many times a retryable failure is resubmitted
	// after the first attempt. Deterministic failures (config errors,
	// deadlocks, panics) are never retried regardless.
	MaxRetries int
	// Backoff is the delay before the first retry; it doubles per retry
	// and is capped at maxBackoff. Zero selects defaultBackoff.
	Backoff time.Duration
}

const (
	defaultBackoff = 50 * time.Millisecond
	maxBackoff     = 2 * time.Second
)

// shardCount is the number of lock stripes the memo cache is split into.
// Every Cached/CachedCtx call from every worker used to serialize on one
// pool-wide mutex; with the cache sharded by fingerprint hash, two workers
// only contend when their keys land in the same stripe (1/64 of the time),
// so submission stops being a scaling bottleneck. Must be a power of two.
const shardCount = 64

// cacheShard is one lock stripe of the memo cache. The trailing pad keeps
// neighbouring shards' mutexes on separate cache lines so uncontended locks
// on different shards do not false-share.
type cacheShard struct {
	mu sync.Mutex
	m  map[string]*entry
	_  [64 - 16]byte
}

// fnv32 is FNV-1a over s.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// shardIndex hashes a cache key (FNV-1a) onto its lock stripe.
func shardIndex(key string) uint32 {
	return fnv32(key) & (shardCount - 1)
}

// Pool bounds how many leaf simulation points run concurrently, memoizes
// completed points by fingerprint key, and owns the context / timeout /
// retry policy every leaf runs under. Canceling the pool's context stops
// queued points immediately and running points at their next scheduling
// step (leaf functions receive a derived context for exactly that).
//
// The memo cache is lock-striped into shardCount shards keyed by a hash of
// the fingerprint, so concurrent submissions from many workers do not
// serialize on a single mutex. Exactly-once execution, failed-entry
// eviction and ResetCache semantics are all per-key and unaffected by the
// striping.
type Pool struct {
	// sem caps concurrent leaves: a FIFO counting semaphore holding
	// min(Workers, GOMAXPROCS) tokens, one per running leaf.
	sem  chan struct{}
	ctx  context.Context
	opts Options
	// after paces retry backoff; tests swap in a fake to drive the retry
	// schedule deterministically instead of sleeping.
	after func(time.Duration) <-chan time.Time
	// retries counts attempts spent beyond each point's first — the
	// end-of-run failure summary reports it (see Stats).
	retries atomic.Int64
	shards  [shardCount]cacheShard
}

// Stats is a snapshot of the pool's cumulative execution counters.
type Stats struct {
	// Retries is how many extra attempts retryable failures have cost so
	// far, summed over all points (local and remote).
	Retries int64
}

// Stats snapshots the pool's counters; safe concurrently with submissions.
func (p *Pool) Stats() Stats { return Stats{Retries: p.retries.Load()} }

// entry is one submitted point: a completion signal plus its value, or the
// structured error (including wrapped panics) it failed with.
type entry struct {
	done chan struct{}
	key  string
	val  any
	err  error
}

// NewPool returns a pool admitting workers concurrent leaf points; values
// below 1 select GOMAXPROCS. The pool runs under context.Background with
// no per-point timeout and no retries.
func NewPool(workers int) *Pool {
	return NewPoolOpts(context.Background(), Options{Workers: workers})
}

// NewPoolOpts returns a pool with the full execution policy. All leaf
// points run under contexts derived from ctx; canceling it drains the
// pool: queued points fail with ctx's error without running.
func NewPoolOpts(ctx context.Context, o Options) *Pool {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = defaultBackoff
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := &Pool{
		sem:   make(chan struct{}, min(o.Workers, runtime.GOMAXPROCS(0))),
		ctx:   ctx,
		opts:  o,
		after: time.After,
	}
	for i := range p.shards {
		p.shards[i].m = make(map[string]*entry)
	}
	return p
}

// Workers returns the pool's configured -j degree (before the GOMAXPROCS
// clamp).
func (p *Pool) Workers() int { return p.opts.Workers }

// shard returns the lock stripe holding key.
func (p *Pool) shard(key string) *cacheShard { return &p.shards[shardIndex(key)] }

// ResetCache drops every memoized result, forcing subsequent Cached calls
// to recompute. Tests and benchmarks use it to observe fresh computation.
// Safe concurrently with in-flight points: a running point whose entry was
// dropped completes normally for its current waiters, and its failure
// eviction becomes a no-op (evict only removes the identical entry).
func (p *Pool) ResetCache() {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		s.m = make(map[string]*entry)
		s.mu.Unlock()
	}
}

// defaultPool is the process-wide pool, swapped atomically so the hot
// submission path (every Cached call goes through Default) never takes a
// global lock, and Configure during an in-flight sweep cannot block or be
// blocked by submissions.
var defaultPool atomic.Pointer[Pool]

func init() { defaultPool.Store(NewPool(0)) }

// Default returns the process-wide pool the core experiments submit to.
func Default() *Pool { return defaultPool.Load() }

// SetWorkers replaces the default pool with a fresh one of n workers
// (n < 1 selects GOMAXPROCS). The previous pool's cache is dropped; points
// already running on it complete undisturbed.
func SetWorkers(n int) { Configure(context.Background(), Options{Workers: n}) }

// Configure replaces the default pool with one running the given policy
// under ctx. Like SetWorkers, the previous pool's cache is dropped and
// in-flight points complete undisturbed on the old pool: coordinators that
// captured the old pool (or futures minted from it) keep their entries,
// workers and context until they finish.
func Configure(ctx context.Context, o Options) {
	defaultPool.Store(NewPoolOpts(ctx, o))
}

// ResetCache clears the default pool's memoized results.
func ResetCache() { Default().ResetCache() }

// PanicError wraps a panic recovered from a submitted function, preserving
// the panic value and the goroutine stack captured at recovery time so the
// crash site survives the trip across the pool to whichever goroutine
// ultimately collects the future.
type PanicError struct {
	// Key is the cache key of the panicking leaf point; empty for
	// coordinator (Go) panics.
	Key string
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack.
	Stack string
}

func (e *PanicError) Error() string {
	where := "sweep: point panicked"
	if e.Key != "" {
		where = fmt.Sprintf("sweep: point %q panicked", e.Key)
	}
	return fmt.Sprintf("%s: %v\n%s", where, e.Value, e.Stack)
}

// Unwrap exposes an error-typed panic value to errors.Is/As chains, so a
// rank program that panics with a *vmpi.RunError keeps its kind visible.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// FailureKind labels degraded report cells (see report.FailureKinder).
// A wrapped error-typed panic value with its own kind wins.
func (e *PanicError) FailureKind() string {
	if fk, ok := e.Value.(interface{ FailureKind() string }); ok {
		return fk.FailureKind()
	}
	return "panic"
}

// Retryable reports whether err (or anything it wraps) declares itself
// worth resubmitting via a Retryable() method — vmpi timeouts and
// transient faults do; deterministic failures do not.
func Retryable(err error) bool {
	for e := err; e != nil; e = errors.Unwrap(e) {
		if r, ok := e.(interface{ Retryable() bool }); ok {
			return r.Retryable()
		}
	}
	return false
}

// Future is the pending result of a submitted point. It is a small value
// (one word) so handing a memoized result to its caller allocates nothing;
// copy it freely. The zero Future is invalid — futures come from Go,
// Cached or CachedCtx.
type Future[T any] struct {
	e *entry
}

// Valid reports whether the future came from a real submission. The zero
// Future is not valid; experiments use zero futures for table cells whose
// configuration is impossible (over the CPU or fabric-card limit).
func (f Future[T]) Valid() bool { return f.e != nil }

// Wait blocks until the point completes and returns its value. If the
// point failed, Wait panics with its error (panicking points arrive as a
// *PanicError carrying the original value and stack), so failures surface
// on the collecting goroutine exactly as they would serially. Callers that
// can degrade gracefully use WaitErr instead.
func (f Future[T]) Wait() T {
	v, err := f.WaitErr()
	if err != nil {
		panic(err)
	}
	return v
}

// WaitErr blocks until the point completes and returns its value or its
// structured error: the leaf function's own error, a *PanicError for a
// recovered panic, or the pool context's error for points drained by
// cancellation.
func (f Future[T]) WaitErr() (T, error) {
	<-f.e.done
	if f.e.err != nil {
		var zero T
		return zero, f.e.err
	}
	return f.e.val.(T), nil
}

// Err blocks until the point completes and returns only its error.
func (f Future[T]) Err() error {
	<-f.e.done
	return f.e.err
}

// evict removes a failed entry from the cache — unless a ResetCache or
// pool replacement already installed a different entry under the key — so
// a later resubmission of the same point can attempt a fresh computation
// instead of being served the memoized failure forever.
func (p *Pool) evict(e *entry) {
	if e.key == "" {
		return
	}
	s := p.shard(e.key)
	s.mu.Lock()
	if s.m[e.key] == e {
		delete(s.m, e.key)
	}
	s.mu.Unlock()
}

// runLeaf executes a leaf entry under the pool's concurrency cap: it
// takes a semaphore token (or bails on pool cancellation), holds it across
// retries, and runs every attempt under the per-attempt timeout.
func (p *Pool) runLeaf(e *entry, fn func(context.Context) (any, error)) {
	go func() {
		defer close(e.done)
		select {
		case p.sem <- struct{}{}:
			defer func() { <-p.sem }()
		case <-p.ctx.Done():
			// Queued when the pool was canceled: retry drains the entry
			// without running it.
		}
		p.retry(e, func(ctx context.Context) (any, error) {
			if p.opts.Timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, p.opts.Timeout)
				defer cancel()
			}
			return fn(ctx)
		})
	}()
}

// runRemote executes an out-of-process entry: no token is taken and no
// per-attempt timeout applied. The worker fleet owns its own concurrency
// and enforces the wall-clock budget; double-budgeting here would turn a
// worker-side "!timeout" cell into a supervisor-side "!canceled" one.
func (p *Pool) runRemote(e *entry, fn func(context.Context) (any, error)) {
	go func() {
		defer close(e.done)
		p.retry(e, fn)
	}()
}

// retry records the outcome of fn in e: attempts under the pool's context
// with bounded doubling-backoff retries for retryable failures, each
// attempt's panic converted into a *PanicError. A final failure is recorded
// for current waiters and the entry is evicted so resubmission recomputes.
func (p *Pool) retry(e *entry, fn func(context.Context) (any, error)) {
	// A canceled pool drains its queue deterministically, even when the
	// cancellation raced a token handoff.
	if err := p.ctx.Err(); err != nil {
		e.err = err
		p.evict(e)
		return
	}
	delay := p.opts.Backoff
	for n := 0; ; n++ {
		val, err := p.attempt(e.key, fn)
		if err == nil {
			e.val, e.err = val, nil
			return
		}
		e.err = err
		if n >= p.opts.MaxRetries || !Retryable(err) {
			break
		}
		p.retries.Add(1)
		select {
		case <-p.after(delay):
		case <-p.ctx.Done():
			e.err = p.ctx.Err()
			p.evict(e)
			return
		}
		if delay < maxBackoff {
			delay *= 2
		}
	}
	p.evict(e)
}

// attempt runs fn once under the pool's context, converting a panic into
// a *PanicError with the stack captured here, at the source.
func (p *Pool) attempt(key string, fn func(context.Context) (any, error)) (val any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Key: key, Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn(p.ctx)
}

// Go runs fn concurrently on a plain goroutine, outside the worker bound.
// It exists for coordination tasks — a whole experiment submitting its
// points and assembling tables — which spend their time waiting on Cached
// futures and would deadlock a small pool if they held a token meanwhile.
func Go[T any](p *Pool, fn func() T) Future[T] {
	e := &entry{done: make(chan struct{})}
	go func() {
		defer close(e.done)
		defer func() {
			if r := recover(); r != nil {
				e.err = &PanicError{Value: r, Stack: string(debug.Stack())}
			}
		}()
		e.val = fn()
	}()
	return Future[T]{e: e}
}

// lookup returns the future already memoized under key, if any. It is the
// cache-hit path of every Cached call and must stay allocation-free: the
// future wraps the existing entry by value.
func lookup[T any](p *Pool, key string) (Future[T], bool) {
	s := p.shard(key)
	s.mu.Lock()
	e, ok := s.m[key]
	s.mu.Unlock()
	if !ok {
		return Future[T]{}, false
	}
	return Future[T]{e: e}, true
}

// Cached submits the leaf point fn under the given fingerprint key, or, if
// the key was already submitted to this pool, returns the existing future
// (possibly already complete). At most Workers leaf points execute at any
// moment. The key must canonically identify both the workload and the
// configuration — build it from vmpi.Config.Fingerprint plus a workload
// prefix. fn must not wait on other futures.
//
// The cache-hit path allocates nothing: the future is returned by value
// and the context adapter around fn is only built on a miss.
// TestCacheHitAllocationFlat pins the hit path of Cached, CachedCtx and
// CachedRemote.
func Cached[T any](p *Pool, key string, fn func() T) Future[T] {
	if f, ok := lookup[T](p, key); ok {
		return f
	}
	return CachedCtx(p, key, func(context.Context) (T, error) { return fn(), nil })
}

// CachedCtx is Cached for fault-aware leaf points: fn receives a context
// derived from the pool's (with the per-attempt Timeout applied) and may
// return a structured error instead of panicking. Failed points are
// retried per the pool's policy when the error is retryable, recorded for
// all current waiters, and evicted from the cache so a later resubmission
// recomputes rather than replaying the failure.
func CachedCtx[T any](p *Pool, key string, fn func(context.Context) (T, error)) Future[T] {
	s := p.shard(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		s.mu.Unlock()
		return Future[T]{e: e}
	}
	e := &entry{done: make(chan struct{}), key: key}
	s.m[key] = e
	s.mu.Unlock()
	p.runLeaf(e, func(ctx context.Context) (any, error) { return fn(ctx) })
	return Future[T]{e: e}
}

// CachedRemote is CachedCtx for points dispatched to an out-of-process
// worker fleet (see package dist): memoization under the same key space,
// retryable-failure resubmission with the pool's backoff schedule, and
// failed-entry eviction are identical, but the submission takes no token
// under the pool's cap and runs under the pool's context without the
// per-attempt Timeout — the fleet owns concurrency and the wall-clock
// budget. Mixing Cached and CachedRemote
// keys in one pool is safe: whichever submission lands first owns the entry.
func CachedRemote[T any](p *Pool, key string, fn func(context.Context) (T, error)) Future[T] {
	s := p.shard(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		s.mu.Unlock()
		return Future[T]{e: e}
	}
	e := &entry{done: make(chan struct{}), key: key}
	s.m[key] = e
	s.mu.Unlock()
	p.runRemote(e, func(ctx context.Context) (any, error) { return fn(ctx) })
	return Future[T]{e: e}
}

// Collect waits on futures in submission order and returns their values —
// the step that restores sequential output order after a parallel fan-out.
// Like Wait, it panics on the first failed point; degraded-mode callers
// iterate with WaitErr themselves.
func Collect[T any](fs []Future[T]) []T {
	out := make([]T, len(fs))
	for i, f := range fs {
		out[i] = f.Wait()
	}
	return out
}
