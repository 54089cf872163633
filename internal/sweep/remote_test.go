package sweep

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestCachedRemoteHoldsNoSlot: remote points bypass the concurrency cap —
// on a Workers:1 pool, several remote points run concurrently (each is
// only a dispatch waiting on a worker process, not a local computation),
// where capped points would serialize. The test would deadlock if remote
// submissions took tokens: every fn blocks until all have started.
func TestCachedRemoteHoldsNoSlot(t *testing.T) {
	p := NewPool(1)
	const n = 4
	var started sync.WaitGroup
	started.Add(n)
	fs := make([]Future[int], n)
	for i := 0; i < n; i++ {
		i := i
		fs[i] = CachedRemote(p, key(i), func(context.Context) (int, error) {
			started.Done()
			started.Wait() // rendezvous: requires all n in flight at once
			return i, nil
		})
	}
	for i, f := range fs {
		v, err := f.WaitErr()
		if err != nil || v != i {
			t.Errorf("point %d = (%d, %v), want (%d, nil)", i, v, err, i)
		}
	}
}

func key(i int) string { return "remote/point=" + string(rune('a'+i)) }

// TestCachedRemoteSkipsTimeout: the pool's per-attempt Timeout must not
// reach remote dispatches — the worker enforces the budget, and a second
// deadline here would relabel worker-side "!timeout" cells as "!canceled".
func TestCachedRemoteSkipsTimeout(t *testing.T) {
	p := NewPoolOpts(context.Background(), Options{Workers: 1, Timeout: time.Nanosecond})
	v, err := CachedRemote(p, "remote/no-deadline", func(ctx context.Context) (int, error) {
		if _, ok := ctx.Deadline(); ok {
			return 0, errors.New("remote dispatch got a local deadline")
		}
		return 7, nil
	}).WaitErr()
	if err != nil || v != 7 {
		t.Errorf("WaitErr = (%d, %v), want (7, nil)", v, err)
	}
}

// TestCachedRemoteRetrySchedule: remote dispatches retry retryable failures
// on the same doubling-backoff schedule as local leaves, and the retries
// are visible in Stats.
func TestCachedRemoteRetrySchedule(t *testing.T) {
	p := NewPoolOpts(context.Background(), Options{
		Workers: 1, MaxRetries: 3, Backoff: 250 * time.Millisecond,
	})
	var delays []time.Duration
	p.after = func(d time.Duration) <-chan time.Time {
		delays = append(delays, d)
		ch := make(chan time.Time, 1)
		ch <- time.Time{}
		return ch
	}
	attempts := 0
	_, err := CachedRemote(p, "remote/flaky", func(context.Context) (int, error) {
		attempts++
		return 0, &transientErr{n: attempts}
	}).WaitErr()
	var te *transientErr
	if !errors.As(err, &te) {
		t.Fatalf("WaitErr = %v, want transientErr after retries exhausted", err)
	}
	if attempts != 4 {
		t.Errorf("attempts = %d, want 4 (1 initial + 3 retries)", attempts)
	}
	want := []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second}
	if len(delays) != len(want) {
		t.Fatalf("backoff delays = %v, want %v", delays, want)
	}
	for i := range want {
		if delays[i] != want[i] {
			t.Errorf("delay %d = %v, want %v", i, delays[i], want[i])
		}
	}
	if got := p.Stats().Retries; got != 3 {
		t.Errorf("Stats().Retries = %d, want 3", got)
	}
	// The failed entry was evicted: resubmission recomputes.
	if _, err := CachedRemote(p, "remote/flaky", func(context.Context) (int, error) {
		attempts++
		return 42, nil
	}).WaitErr(); err != nil {
		t.Errorf("resubmission after eviction failed: %v", err)
	}
	if attempts != 5 {
		t.Errorf("attempts = %d, want 5 (eviction must allow recomputation)", attempts)
	}
}

// TestCachedRemoteMemoizesAndConvertsPanics: remote entries share the memo
// cache with local ones (first submission wins the key), and a panicking
// dispatch surfaces as a *PanicError like any leaf.
func TestCachedRemoteMemoizesAndConvertsPanics(t *testing.T) {
	p := NewPool(2)
	runs := 0
	f1 := CachedRemote(p, "remote/memo", func(context.Context) (int, error) {
		runs++
		return 5, nil
	})
	if v := f1.Wait(); v != 5 {
		t.Fatalf("Wait = %d", v)
	}
	f2 := CachedRemote(p, "remote/memo", func(context.Context) (int, error) {
		runs++
		return 6, nil
	})
	if v := f2.Wait(); v != 5 || runs != 1 {
		t.Errorf("memoized remote = %d (runs=%d), want 5 (runs=1)", v, runs)
	}
	// Local Cached sees the remote entry too: one key space.
	f3 := Cached(p, "remote/memo", func() int { runs++; return 7 })
	if v := f3.Wait(); v != 5 || runs != 1 {
		t.Errorf("Cached after CachedRemote = %d (runs=%d), want 5 (runs=1)", v, runs)
	}
	err := CachedRemote(p, "remote/panics", func(context.Context) (int, error) {
		panic("wire exploded")
	}).Err()
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Key != "remote/panics" {
		t.Errorf("panic surfaced as %v, want *PanicError with key", err)
	}
}

// TestStatsCountsLocalRetries: the retry counter covers the capped path
// too, so the CLI's failure summary reflects every resubmission.
func TestStatsCountsLocalRetries(t *testing.T) {
	p := NewPoolOpts(context.Background(), Options{Workers: 1, MaxRetries: 2})
	p.after = func(time.Duration) <-chan time.Time {
		ch := make(chan time.Time, 1)
		ch <- time.Time{}
		return ch
	}
	attempts := 0
	CachedCtx(p, "local/flaky", func(context.Context) (int, error) {
		attempts++
		if attempts < 3 {
			return 0, &transientErr{n: attempts}
		}
		return 1, nil
	}).Wait()
	if got := p.Stats().Retries; got != 2 {
		t.Errorf("Stats().Retries = %d, want 2", got)
	}
}
