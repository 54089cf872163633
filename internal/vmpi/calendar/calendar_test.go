package calendar

import (
	"math/rand"
	"sort"
	"testing"
)

func TestHeapOrdersByTimeThenRank(t *testing.T) {
	var h Heap
	events := []Event{
		{At: 3.0, Rank: 1},
		{At: 1.0, Rank: 2},
		{At: 1.0, Rank: 0},
		{At: 2.0, Rank: 5},
		{At: 1.0, Rank: 1},
		{At: 0.5, Rank: 7},
	}
	for _, e := range events {
		h.Push(e)
	}
	want := []Event{
		{At: 0.5, Rank: 7},
		{At: 1.0, Rank: 0},
		{At: 1.0, Rank: 1},
		{At: 1.0, Rank: 2},
		{At: 2.0, Rank: 5},
		{At: 3.0, Rank: 1},
	}
	for i, w := range want {
		e, ok := h.Pop()
		if !ok {
			t.Fatalf("pop %d: heap empty early", i)
		}
		if e != w {
			t.Fatalf("pop %d: got %+v want %+v", i, e, w)
		}
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("heap should be empty")
	}
}

func TestHeapMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var h Heap
		n := 1 + rng.Intn(200)
		ref := make([]Event, 0, n)
		for i := 0; i < n; i++ {
			e := Event{
				At:   float64(rng.Intn(20)),
				Rank: int32(rng.Intn(16)),
				Seq:  uint32(i),
			}
			h.Push(e)
			ref = append(ref, e)
		}
		sort.SliceStable(ref, func(i, j int) bool { return less(ref[i], ref[j]) })
		for i := range ref {
			e, ok := h.Pop()
			if !ok {
				t.Fatalf("trial %d pop %d: heap empty early", trial, i)
			}
			// Equal (At, Rank) pairs may pop in any Seq order; compare keys.
			if e.At != ref[i].At || e.Rank != ref[i].Rank {
				t.Fatalf("trial %d pop %d: got (%v,%d) want (%v,%d)",
					trial, i, e.At, e.Rank, ref[i].At, ref[i].Rank)
			}
		}
	}
}

func TestHeapReset(t *testing.T) {
	var h Heap
	h.Push(Event{At: 2, Rank: 1})
	h.Push(Event{At: 1, Rank: 3})
	h.Reset()
	if _, ok := h.Pop(); ok {
		t.Fatal("pop after reset should report !ok")
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
