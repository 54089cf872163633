package calendar

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// checkHeap verifies the heap order and that pos indexes every event.
func checkHeap(t *testing.T, h *Heap) {
	t.Helper()
	for i, e := range h.ev {
		if i > 0 && less(e, h.ev[(i-1)/2]) {
			t.Fatalf("event %d %+v orders before its parent %+v", i, e, h.ev[(i-1)/2])
		}
		if got := h.pos[e.Rank]; int(got) != i+1 {
			t.Fatalf("pos[%d] = %d, want %d", e.Rank, got, i+1)
		}
	}
	n := 0
	for _, p := range h.pos {
		if p != 0 {
			n++
		}
	}
	if n != len(h.ev) {
		t.Fatalf("%d ranks have a position, heap holds %d events", n, len(h.ev))
	}
}

// sortedRef returns the events of a reference that keeps one optional
// event per rank, in pick order.
func sortedRef(at []float64, set []bool) []Event {
	var ev []Event
	for r, ok := range set {
		if ok {
			ev = append(ev, Event{At: at[r], Rank: int32(r)})
		}
	}
	sort.Slice(ev, func(i, j int) bool { return less(ev[i], ev[j]) })
	return ev
}

// drain removes every event through Min and Remove, in pick order.
func drain(h *Heap) []Event {
	var out []Event
	for e, ok := h.Min(); ok; e, ok = h.Min() {
		out = append(out, e)
		h.Remove(e.Rank)
	}
	return out
}

func TestHeapOrdersByTimeThenRank(t *testing.T) {
	var h Heap
	h.Reset(8)
	for _, e := range []Event{
		{At: 3.0, Rank: 1},
		{At: 1.0, Rank: 2},
		{At: 1.0, Rank: 0},
		{At: 2.0, Rank: 5},
		{At: 1.0, Rank: 3},
		{At: 0.5, Rank: 7},
	} {
		h.Set(e.Rank, e.At)
		checkHeap(t, &h)
	}
	want := []Event{
		{At: 0.5, Rank: 7},
		{At: 1.0, Rank: 0},
		{At: 1.0, Rank: 2},
		{At: 1.0, Rank: 3},
		{At: 2.0, Rank: 5},
		{At: 3.0, Rank: 1},
	}
	if got := drain(&h); !reflect.DeepEqual(got, want) {
		t.Fatalf("pick order %v, want %v", got, want)
	}
	if _, ok := h.Min(); ok {
		t.Fatal("heap should be empty")
	}
}

// TestHeapMatchesSortReference drives random Set and Remove sequences —
// inserts, re-keys up and down, removals of present and absent ranks, on
// few distinct times so ties are common — and after each step compares Min
// with the first event of a sorted reference; at the end of each trial the
// heap drains in the reference's order.
func TestHeapMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Heap
	for trial := 0; trial < 50; trial++ {
		ranks := 1 + rng.Intn(64)
		h.Reset(ranks)
		at, set := make([]float64, ranks), make([]bool, ranks)
		for step := 0; step < 400; step++ {
			r := int32(rng.Intn(ranks))
			if rng.Intn(3) == 0 {
				h.Remove(r)
				set[r] = false
			} else {
				at[r], set[r] = float64(rng.Intn(20)), true
				h.Set(r, at[r])
			}
			checkHeap(t, &h)
			got, ok := h.Min()
			want := sortedRef(at, set)
			if ok != (len(want) > 0) || (ok && got != want[0]) {
				t.Fatalf("trial %d step %d: Min = %+v, %v; reference %v", trial, step, got, ok, want)
			}
		}
		want := sortedRef(at, set)
		if got := drain(&h); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: drained %v, reference %v", trial, got, want)
		}
	}
}

func TestHeapRekeysInPlace(t *testing.T) {
	var h Heap
	h.Reset(8)
	for r := int32(0); r < 8; r++ {
		h.Set(r, float64(r))
	}
	h.Set(0, 9) // the root moves down to the end of the order
	checkHeap(t, &h)
	h.Set(6, -1) // a leaf moves up to the root
	checkHeap(t, &h)
	h.Set(3, 3) // an unchanged key stays where it is
	checkHeap(t, &h)
	h.Set(4, 2) // a tie at time 2 goes to the lower rank
	checkHeap(t, &h)
	if len(h.ev) != 8 {
		t.Fatalf("re-keying left %d events for 8 ranks", len(h.ev))
	}
	want := []Event{{-1, 6}, {1, 1}, {2, 2}, {2, 4}, {3, 3}, {5, 5}, {7, 7}, {9, 0}}
	if got := drain(&h); !reflect.DeepEqual(got, want) {
		t.Fatalf("pick order after re-keys %v, want %v", got, want)
	}
}

func TestHeapRemove(t *testing.T) {
	var h Heap
	for _, c := range []struct {
		name  string
		index func(*Heap) int
	}{
		{"root", func(*Heap) int { return 0 }},
		{"middle", func(h *Heap) int { return len(h.ev) / 2 }},
		{"last", func(h *Heap) int { return len(h.ev) - 1 }},
	} {
		const ranks = 16
		h.Reset(ranks)
		at, set := make([]float64, ranks), make([]bool, ranks)
		for r := int32(0); r < ranks; r++ {
			at[r], set[r] = float64((r*7)%ranks), true
			h.Set(r, at[r])
		}
		gone := h.ev[c.index(&h)].Rank
		h.Remove(gone)
		set[gone] = false
		checkHeap(t, &h)
		h.Remove(gone) // a second Remove is a no-op
		checkHeap(t, &h)
		if h.pos[gone] != 0 || len(h.ev) != ranks-1 {
			t.Fatalf("%s: rank %d still indexed at %d, %d events left", c.name, gone, h.pos[gone], len(h.ev))
		}
		if got, want := drain(&h), sortedRef(at, set); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: after removing rank %d the heap drains as %v, want %v", c.name, gone, got, want)
		}
	}
}

func TestHeapReset(t *testing.T) {
	var h Heap
	h.Reset(8)
	for r := int32(0); r < 8; r++ {
		h.Set(r, float64(8-r))
	}
	h.Reset(3)
	if _, ok := h.Min(); ok || len(h.pos) != 3 {
		t.Fatalf("Reset(3) left %d events and %d positions", len(h.ev), len(h.pos))
	}
	h.Remove(2) // no event since the reset: a no-op
	h.Set(2, 5)
	h.Set(1, 5)
	checkHeap(t, &h)
	if e, _ := h.Min(); e != (Event{At: 5, Rank: 1}) {
		t.Fatalf("Min after Reset(3) = %+v, want rank 1 at 5", e)
	}
	// Growing back within capacity must not revive the positions of ranks
	// 3..7 from before the first reset.
	h.Reset(8)
	checkHeap(t, &h)
	h.Set(7, 1)
	if got := drain(&h); !reflect.DeepEqual(got, []Event{{1, 7}}) {
		t.Fatalf("after Reset(8) the heap holds %v, want only rank 7", got)
	}
}

func TestHeapSteadyStateAllocatesNothing(t *testing.T) {
	const ranks = 64
	var h Heap
	h.Reset(ranks)
	at := 0.0
	cycle := func() {
		h.Reset(ranks)
		for r := int32(0); r < ranks; r++ {
			h.Set(r, 0)
		}
		for i := 0; i < 4*ranks; i++ {
			e, _ := h.Min()
			at += 0.5
			if i%5 == 0 {
				h.Remove(e.Rank)
				h.Set(e.Rank, at/2)
			} else {
				h.Set(e.Rank, at)
			}
		}
		for e, ok := h.Min(); ok; e, ok = h.Min() {
			h.Remove(e.Rank)
		}
	}
	cycle()
	if a := testing.AllocsPerRun(20, cycle); a != 0 {
		t.Fatalf("steady-state heap cycle allocates %.1f/op, want 0", a)
	}
}

func TestQueueFIFOAndStorageReuse(t *testing.T) {
	var q Queue[int]
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			q.Push(i)
		}
		if q.Len() != 10 {
			t.Fatalf("round %d: len %d want 10", round, q.Len())
		}
		if q.Peek() != 0 {
			t.Fatalf("round %d: peek %d want 0", round, q.Peek())
		}
		for i := 0; i < 10; i++ {
			if v := q.Pop(); v != i {
				t.Fatalf("round %d pop %d: got %d", round, i, v)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("round %d: len %d want 0 after drain", round, q.Len())
		}
	}
	// After warm-up, steady-state push/pop cycles must not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			q.Push(i)
		}
		for i := 0; i < 8; i++ {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state queue cycle allocates %.1f/op, want 0", allocs)
	}
}

func TestQueueInterleavedPushPop(t *testing.T) {
	var q Queue[int]
	next, expect := 0, 0
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 10000; step++ {
		if q.Len() == 0 || rng.Intn(2) == 0 {
			q.Push(next)
			next++
		} else {
			if v := q.Pop(); v != expect {
				t.Fatalf("step %d: pop %d want %d", step, v, expect)
			}
			expect++
		}
	}
	for q.Len() > 0 {
		if v := q.Pop(); v != expect {
			t.Fatalf("drain: pop %d want %d", v, expect)
		}
		expect++
	}
}

func TestFreeListRecycles(t *testing.T) {
	type node struct{ v int }
	var f FreeList[node]
	a := f.Get()
	a.v = 42
	f.Put(a)
	b := f.Get()
	if b != a {
		t.Fatal("Get after Put should return the recycled pointer")
	}
	// Put does not zero: callers reset fields themselves.
	if b.v != 42 {
		t.Fatalf("recycled value: got %d want 42", b.v)
	}
	c := f.Get()
	if c == b {
		t.Fatal("empty free list must allocate a distinct value")
	}
	f.Put(b)
	f.Put(c)
	allocs := testing.AllocsPerRun(100, func() {
		x := f.Get()
		y := f.Get()
		f.Put(x)
		f.Put(y)
	})
	if allocs != 0 {
		t.Fatalf("steady-state freelist cycle allocates %.1f/op, want 0", allocs)
	}
}

// TestSharedPoolWarmCycleAllocatesNothing pins the pool-hit path: once an
// instance is pooled, Get hands it back and Put files it again without
// allocating. Only a Get on an empty pool builds a new one.
func TestSharedPoolWarmCycleAllocatesNothing(t *testing.T) {
	type scratch struct{ grown []int }
	var p SharedPool[scratch]
	warm := p.Get()
	warm.grown = make([]int, 64)
	p.Put(warm)
	got := p.Get()
	if got != warm {
		t.Fatal("Get after Put should return the pooled instance")
	}
	p.Put(got)
	if a := testing.AllocsPerRun(100, func() { p.Put(p.Get()) }); a != 0 {
		t.Fatalf("warm Get/Put cycle allocates %.1f/op, want 0", a)
	}
}
