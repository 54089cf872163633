// Package calendar provides the allocation-free data structures behind the
// event-calendar execution engine in package vmpi: an indexed binary
// min-heap holding at most one scheduling event per rank, a FIFO queue that
// recycles its storage, and a free list for pooled structs.
//
// Everything here is deliberately dumb and deterministic: no maps are
// ranged, no wall clock is read, and every tie is broken by an explicit
// integer comparison, so the engine built on top can guarantee that two
// runs of the same configuration replay the identical event sequence.
//
// The package has no dependency on vmpi (vmpi imports it, not the other
// way around) so the structures are unit-testable in isolation and
// reusable by the communication sanitizer.
package calendar

// Event is one entry in the engine's event calendar: rank Rank becomes
// schedulable at virtual time At. A Heap holds at most one Event per rank
// and re-keys or removes it in place, so no event is ever stale.
type Event struct {
	// At is the virtual time the rank becomes schedulable.
	At float64
	// Rank is the rank the event wakes.
	Rank int32
}

// less orders events by (At, Rank): earliest virtual time first, ties to
// the lowest rank id — exactly the pick order of the goroutine engine's
// linear scan, which is what makes the two engines replay identically.
// With one event per rank, no two events of a Heap compare equal.
func less(a, b Event) bool {
	return a.At < b.At || (a.At == b.At && a.Rank < b.Rank)
}

// Heap is an indexed binary min-heap of Events ordered by (At, Rank),
// holding at most one event per rank: Set inserts a rank's event or re-keys
// it in place, Remove takes it out, and Min reads the root. Each costs
// O(log n) in the number of events, which the rank count bounds. Reset
// readies the heap for a run's ranks; after it, nothing allocates, and the
// storage is recycled across runs.
type Heap struct {
	ev []Event
	// pos[rank] is one more than the index of rank's event in ev, 0 when
	// the rank has none.
	pos []int32
}

// Reset empties the heap and readies it for rank ids in [0, ranks),
// keeping its storage for reuse.
func (h *Heap) Reset(ranks int) {
	if cap(h.ev) < ranks {
		h.ev = make([]Event, 0, ranks)
	}
	h.ev = h.ev[:0]
	if cap(h.pos) < ranks {
		h.pos = make([]int32, ranks)
	}
	h.pos = h.pos[:ranks]
	clear(h.pos)
}

// Min returns the earliest event without removing it. ok is false when the
// heap is empty.
func (h *Heap) Min() (e Event, ok bool) {
	if len(h.ev) == 0 {
		return Event{}, false
	}
	return h.ev[0], true
}

// Set schedules rank at virtual time at: it inserts the rank's event, or
// re-keys the one the rank has and moves it up or down into order.
func (h *Heap) Set(rank int32, at float64) {
	i := int(h.pos[rank]) - 1
	if i < 0 {
		h.ev = append(h.ev, Event{At: at, Rank: rank})
		h.up(len(h.ev) - 1)
		return
	}
	h.ev[i].At = at
	h.fix(i)
}

// Remove takes rank's event out of the heap; a rank without one is left
// as it is.
func (h *Heap) Remove(rank int32) {
	i := int(h.pos[rank]) - 1
	if i < 0 {
		return
	}
	h.pos[rank] = 0
	n := len(h.ev) - 1
	last := h.ev[n]
	h.ev = h.ev[:n]
	if i < n {
		h.ev[i] = last
		h.fix(i)
	}
}

// fix restores the order around index i after its event changed.
func (h *Heap) fix(i int) {
	if i > 0 && less(h.ev[i], h.ev[(i-1)/2]) {
		h.up(i)
	} else {
		h.down(i)
	}
}

// up moves the event at index i toward the root past every parent that
// orders after it.
func (h *Heap) up(i int) {
	e := h.ev[i]
	for i > 0 {
		p := (i - 1) / 2
		if !less(e, h.ev[p]) {
			break
		}
		h.place(i, h.ev[p])
		i = p
	}
	h.place(i, e)
}

// down moves the event at index i toward the leaves past every child that
// orders before it.
func (h *Heap) down(i int) {
	e := h.ev[i]
	n := len(h.ev)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(h.ev[r], h.ev[c]) {
			c = r
		}
		if !less(h.ev[c], e) {
			break
		}
		h.place(i, h.ev[c])
		i = c
	}
	h.place(i, e)
}

// place stores e at index i and records the position for its rank.
func (h *Heap) place(i int, e Event) {
	h.ev[i] = e
	h.pos[e.Rank] = int32(i + 1)
}

// Queue is a FIFO of T that recycles its backing storage: Pop advances a
// head index instead of reslicing, and when the queue drains the buffer
// rewinds to its full capacity. A queue that reaches its working-set
// capacity stops allocating entirely — unlike the append/q[1:] idiom,
// which leaks capacity off the front on every pop.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Push appends v to the tail.
func (q *Queue[T]) Push(v T) { q.buf = append(q.buf, v) }

// Reserve seeds a queue that has never held an element with backing
// storage, which must be empty (length zero; capacity is the reservation).
// Mailbox arenas use it to hand a freshly carved queue a small slice window
// so its first pushes don't each allocate; a queue that outgrows the window
// falls back to append's normal reallocation. Reserve on a queue that
// already has storage is a no-op.
func (q *Queue[T]) Reserve(buf []T) {
	if q.buf == nil && len(buf) == 0 {
		q.buf = buf
	}
}

// Peek returns the head element without removing it; the queue must be
// non-empty.
func (q *Queue[T]) Peek() T { return q.buf[q.head] }

// Pop removes and returns the head element; the queue must be non-empty.
// Draining the queue rewinds the buffer so its whole capacity is reused.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the reference so pooled elements can be freed
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// FreeList pools heap-allocated structs: Get pops a recycled *T or carves
// a fresh one, Put pushes one back. The caller is responsible for
// resetting the struct's fields (Put does not zero it, because callers
// like the engine's message pool want to keep embedded slices' capacity).
// FreeList is not safe for concurrent use; the engines are cooperatively
// scheduled so exactly one goroutine touches a pool at a time.
//
// Cold Gets are served from a chunked slab rather than individual new(T)
// calls: a list warming up (every private per-worker scratch pays this
// once) costs one allocation per freeListChunk entries instead of one per
// entry. A chunk stays reachable while any of its entries is — fine here,
// because entries recycle through the list for the life of the scratch.
type FreeList[T any] struct {
	free []*T
	slab []T
}

// freeListChunk is how many T a cold FreeList allocates at once.
const freeListChunk = 64

// Get returns a pooled *T, or a slab-carved zero-valued one when the pool
// is empty.
func (f *FreeList[T]) Get() *T {
	if n := len(f.free); n > 0 {
		v := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		return v
	}
	if len(f.slab) == 0 {
		f.slab = make([]T, freeListChunk)
	}
	v := &f.slab[0]
	f.slab = f.slab[1:]
	return v
}

// Put recycles v for a later Get.
func (f *FreeList[T]) Put(v *T) { f.free = append(f.free, v) }
