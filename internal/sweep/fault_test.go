package sweep

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// transientErr is a stand-in for a vmpi failure that declares itself
// retryable (timeout, transient node loss).
type transientErr struct{ n int }

func (e *transientErr) Error() string       { return fmt.Sprintf("transient failure %d", e.n) }
func (e *transientErr) Retryable() bool     { return true }
func (e *transientErr) FailureKind() string { return "timeout" }

// TestFaultPanicCarriesStack is satellite 1: the recovered panic arrives
// at the waiter wrapped with the stack captured at the panic site, naming
// the function that died.
func TestFaultPanicCarriesStack(t *testing.T) {
	p := NewPool(2)
	f := Cached(p, "stacky", doomedPointFunction)
	_, err := f.WaitErr()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("WaitErr = %v (%T), want *PanicError", err, err)
	}
	if !strings.Contains(pe.Stack, "doomedPointFunction") {
		t.Errorf("stack does not name the panic site:\n%s", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "doomed by design") {
		t.Errorf("rendered error omits the panic value: %s", pe.Error())
	}
}

func doomedPointFunction() int { panic("doomed by design") }

// TestFaultEvictionAllowsResubmitSuccess is satellite 2: a failed point
// must not poison the memo cache — resubmitting the same key after the
// failure completes runs the (now healthy) function and succeeds.
func TestFaultEvictionAllowsResubmitSuccess(t *testing.T) {
	p := NewPool(2)
	var calls atomic.Int32
	broken := true
	point := func(context.Context) (int, error) {
		calls.Add(1)
		if broken {
			return 0, errors.New("deterministic failure")
		}
		return 99, nil
	}
	if _, err := CachedCtx(p, "heal", point).WaitErr(); err == nil {
		t.Fatal("first attempt should fail")
	}
	broken = false
	v, err := CachedCtx(p, "heal", point).WaitErr()
	if err != nil || v != 99 {
		t.Fatalf("resubmission after eviction = (%d, %v), want (99, nil)", v, err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("function ran %d times, want 2 (failure evicted, success recomputed)", n)
	}
	// The success is memoized as usual.
	Cached(p, "heal", func() int { t.Error("memoized success recomputed"); return 0 }).Wait()
}

func TestFaultPanickingPointIsEvicted(t *testing.T) {
	p := NewPool(2)
	first := true
	point := func() int {
		if first {
			first = false
			panic("one-shot crash")
		}
		return 7
	}
	if _, err := Cached(p, "crashy", point).WaitErr(); err == nil {
		t.Fatal("first attempt should fail")
	}
	if v, err := Cached(p, "crashy", point).WaitErr(); err != nil || v != 7 {
		t.Fatalf("resubmission = (%d, %v), want (7, nil)", v, err)
	}
}

// TestFaultRetryUntilSuccess: a retryable failure is resubmitted with
// backoff up to MaxRetries; the third attempt succeeds.
func TestFaultRetryUntilSuccess(t *testing.T) {
	p := NewPoolOpts(context.Background(), Options{
		Workers: 2, MaxRetries: 3, Backoff: time.Millisecond,
	})
	var attempts atomic.Int32
	v, err := CachedCtx(p, "flaky", func(context.Context) (int, error) {
		if n := attempts.Add(1); n < 3 {
			return 0, &transientErr{n: int(n)}
		}
		return 11, nil
	}).WaitErr()
	if err != nil || v != 11 {
		t.Fatalf("WaitErr = (%d, %v), want (11, nil)", v, err)
	}
	if n := attempts.Load(); n != 3 {
		t.Errorf("attempts = %d, want 3", n)
	}
}

// TestFaultRetryBudgetExhausted: retries are bounded, and the final error
// is the one the last attempt returned.
func TestFaultRetryBudgetExhausted(t *testing.T) {
	p := NewPoolOpts(context.Background(), Options{
		Workers: 1, MaxRetries: 2, Backoff: time.Millisecond,
	})
	var attempts atomic.Int32
	_, err := CachedCtx(p, "doomed", func(context.Context) (int, error) {
		return 0, &transientErr{n: int(attempts.Add(1))}
	}).WaitErr()
	var te *transientErr
	if !errors.As(err, &te) || te.n != 3 {
		t.Fatalf("final error = %v, want the 3rd attempt's", err)
	}
	if n := attempts.Load(); n != 3 {
		t.Errorf("attempts = %d, want 3 (1 + MaxRetries)", n)
	}
}

// TestFaultDeterministicFailureNotRetried: non-retryable errors fail fast
// even when the pool allows retries.
func TestFaultDeterministicFailureNotRetried(t *testing.T) {
	p := NewPoolOpts(context.Background(), Options{
		Workers: 1, MaxRetries: 5, Backoff: time.Millisecond,
	})
	var attempts atomic.Int32
	_, err := CachedCtx(p, "det", func(context.Context) (int, error) {
		attempts.Add(1)
		return 0, errors.New("config error: deterministic")
	}).WaitErr()
	if err == nil {
		t.Fatal("want an error")
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("deterministic failure attempted %d times, want 1", n)
	}
}

// TestFaultPoolCancellationDrainsQueue: canceling the pool context stops
// queued points without running them and unblocks all waiters promptly.
func TestFaultPoolCancellationDrainsQueue(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPoolOpts(ctx, Options{Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	running := CachedCtx(p, "running", func(c context.Context) (int, error) {
		close(started)
		<-release
		return 0, c.Err() // observes cancellation like vmpi.RunCtx would
	})
	// Queue the rest only once "running" holds the single lane: leaves
	// race for it, so a queued point submitted earlier could win the lane
	// and run before cancel().
	<-started
	var ran atomic.Int32
	var queued []Future[int]
	for i := 0; i < 8; i++ {
		queued = append(queued, CachedCtx(p, fmt.Sprintf("queued-%d", i),
			func(context.Context) (int, error) { ran.Add(1); return 0, nil }))
	}
	cancel()
	close(release)
	done := make(chan struct{})
	go func() {
		for _, f := range queued {
			if _, err := f.WaitErr(); !errors.Is(err, context.Canceled) {
				t.Errorf("queued point error = %v, want context.Canceled", err)
			}
		}
		if _, err := running.WaitErr(); !errors.Is(err, context.Canceled) {
			t.Errorf("running point error = %v, want context.Canceled", err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("cancellation did not drain the pool within 1s")
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d queued points ran after cancellation, want 0", n)
	}
}

// TestFaultPerPointTimeout: the Options.Timeout deadline reaches the leaf
// function's context, so a stuck point is abandoned within the budget.
func TestFaultPerPointTimeout(t *testing.T) {
	p := NewPoolOpts(context.Background(), Options{
		Workers: 1, Timeout: 10 * time.Millisecond,
	})
	// A watchdog select bounds the wait instead of measuring elapsed
	// wall time, so the assertion cannot flake on a loaded machine and
	// the test reads no clocks (nodeterm-clean).
	done := make(chan error, 1)
	go func() {
		_, err := CachedCtx(p, "stuck", func(ctx context.Context) (int, error) {
			<-ctx.Done()
			return 0, ctx.Err()
		}).WaitErr()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("per-point timeout did not fire within 2s")
	}
}

// TestFaultGoPanicWrapped: coordinator panics also arrive as *PanicError
// (with stack, without a cache key).
func TestFaultGoPanicWrapped(t *testing.T) {
	p := NewPool(1)
	_, err := Go(p, func() int { panic(errors.New("coordinator bug")) }).WaitErr()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("WaitErr = %v, want *PanicError", err)
	}
	if pe.Key != "" {
		t.Errorf("coordinator panic has key %q, want empty", pe.Key)
	}
	// An error-typed panic value stays reachable through Unwrap.
	if !strings.Contains(errors.Unwrap(pe).Error(), "coordinator bug") {
		t.Errorf("Unwrap lost the error-typed panic value")
	}
}
