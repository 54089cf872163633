package sweep

// Allocation budgets for the sweep hot path, the submission-side
// counterpart of internal/vmpi/alloc_test.go's engine budgets. The sweep
// runs hundreds of thousands of points per benchmark op; a stray
// per-lookup allocation multiplies by that count and goes straight to the
// GC pressure that made the parallel sweep lose to serial. The budgets are
// deliberately tight: raising one is a design decision, not a test fix.

import (
	"context"
	"fmt"
	"testing"
)

// TestCacheHitAllocationFlat pins the contract documented on Cached: once
// a key is memoized, resubmitting it through any of the three submitters
// and collecting the value allocates nothing — the future is one word
// handed back by value, and the closure adapters and the leaf are only
// built on a miss.
func TestCacheHitAllocationFlat(t *testing.T) {
	p := NewPool(2)
	const key = "alloc/hit"
	if _, err := CachedCtx(p, key, func(context.Context) (float64, error) { return 3.5, nil }).WaitErr(); err != nil {
		t.Fatal(err)
	}
	// Hoisted so the measurement sees only the submit and the wait, not the
	// cost of building the caller's own closure literals.
	fn := func() float64 { t.Error("cache hit recomputed"); return 0 }
	fnCtx := func(context.Context) (float64, error) { t.Error("cache hit recomputed"); return 0, nil }
	for _, c := range []struct {
		name   string
		submit func() Future[float64]
	}{
		{"Cached", func() Future[float64] { return Cached(p, key, fn) }},
		{"CachedCtx", func() Future[float64] { return CachedCtx(p, key, fnCtx) }},
		{"CachedRemote", func() Future[float64] { return CachedRemote(p, key, fnCtx) }},
	} {
		avg := testing.AllocsPerRun(200, func() {
			if c.submit().Wait() != 3.5 {
				t.Fatal("wrong memoized value")
			}
		})
		if avg != 0 {
			t.Errorf("%s cache-hit submit+wait allocates %.1f objects/op, want 0", c.name, avg)
		}
	}
}

// TestColdSubmitAllocationBounded budgets the miss path: the entry, its
// completion channel, the closure wrapping fn, the leaf goroutine's
// closure and the boxed result, 5 objects. Shard-map growth amortizes
// below one object per point, and AllocsPerRun's integer average drops
// it, so one more object per point fails.
func TestColdSubmitAllocationBounded(t *testing.T) {
	const budget = 5
	p := NewPool(2)
	keys := make([]string, 0, 400)
	for i := 0; i < cap(keys); i++ {
		keys = append(keys, fmt.Sprintf("alloc/cold/%d", i))
	}
	next := 0
	avg := testing.AllocsPerRun(200, func() {
		key := keys[next]
		next++
		v, err := CachedCtx(p, key, func(context.Context) (float64, error) { return 1.25, nil }).WaitErr()
		if err != nil || v != 1.25 {
			t.Fatalf("cold point: %v, %v", v, err)
		}
	})
	if avg > budget {
		t.Errorf("cold submit allocates %.1f objects/op, budget %d", avg, budget)
	}
}
