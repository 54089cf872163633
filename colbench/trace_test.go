package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestChromeTrace(t *testing.T) {
	run := handRun()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, run.spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			TS, Dur  float64
			PID, TID int
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	complete, meta := 0, 0
	pids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			if e.Name == "" || e.Dur < 0 || e.TS < 0 {
				t.Errorf("bad event %+v", e)
			}
			pids[e.PID] = true
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if complete != len(run.spans) || meta != 2 || len(pids) != 2 {
		t.Errorf("%d complete events in %d processes with %d names, want %d in 2 with 2",
			complete, len(pids), meta, len(run.spans))
	}
}

// TestLaneDispatcherExclusive hammers acquire/release from many goroutines:
// no lane is ever held twice and every waiter is served.
func TestLaneDispatcherExclusive(t *testing.T) {
	d := newLaneDispatcher(tracer{rec: newRecorder()}, 2)
	var held [2]atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := d.acquire(i % 2)
			if n := held[lane].Add(1); n != 1 {
				t.Errorf("lane %d held %d times", lane, n)
			}
			time.Sleep(100 * time.Microsecond)
			held[lane].Add(-1)
			d.release(lane)
		}()
	}
	wg.Wait()
	if !d.free[0] || !d.free[1] || len(d.waiters) != 0 {
		t.Errorf("after all releases: free %v, %d waiters", d.free, len(d.waiters))
	}
}

// TestLaneDispatcherHandoff checks the slot-table policy: a released lane
// goes to the earliest waiter preferring it, ahead of earlier waiters.
func TestLaneDispatcherHandoff(t *testing.T) {
	d := newLaneDispatcher(tracer{rec: newRecorder()}, 2)
	if a, b := d.acquire(0), d.acquire(0); a != 0 || b != 1 {
		t.Fatalf("free lanes granted %d, %d; want 0 then the spill lane 1", a, b)
	}
	got := make(chan [2]int, 2)
	queue := func(pref, want int) {
		go func() { got <- [2]int{pref, d.acquire(pref)} }()
		for {
			d.mu.Lock()
			n := len(d.waiters)
			d.mu.Unlock()
			if n == want {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	queue(1, 1)
	queue(0, 2)
	d.release(0)
	if g := <-got; g != [2]int{0, 0} {
		t.Errorf("release(0) granted %v, want the waiter preferring lane 0", g)
	}
	d.release(1)
	if g := <-got; g != [2]int{1, 1} {
		t.Errorf("release(1) granted %v, want the waiter preferring lane 1", g)
	}
}
