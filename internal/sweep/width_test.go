package sweep

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ { // ~5s of millisecond polls
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestWidthClampsConcurrency pins the GOMAXPROCS clamp: a -j 8 pool on a
// 2-core budget runs at most 2 leaves at once, while Workers still reports
// the configured -j.
func TestWidthClampsConcurrency(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	p := NewPool(8)
	if p.Workers() != 8 {
		t.Fatalf("Workers() = %d, want the configured 8", p.Workers())
	}

	gate := make(chan struct{})
	var running, peak atomic.Int32
	futs := make([]Future[int], 0, 8)
	for i := 0; i < 8; i++ {
		i := i
		futs = append(futs, Cached(p, fmt.Sprintf("width/key=%d", i), func() int {
			n := running.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			<-gate
			running.Add(-1)
			return i
		}))
	}
	// Exactly 2 leaves must start; the rest queue behind the clamp.
	waitFor(t, "2 leaves running", func() bool { return running.Load() == 2 })
	time.Sleep(10 * time.Millisecond)
	if n := running.Load(); n != 2 {
		t.Fatalf("%d leaves running, want exactly 2", n)
	}
	close(gate)
	for i, f := range futs {
		if got := f.Wait(); got != i {
			t.Fatalf("leaf %d returned %d", i, got)
		}
	}
	if pk := peak.Load(); pk > 2 {
		t.Errorf("peak concurrency %d exceeded the clamp of 2", pk)
	}
}
