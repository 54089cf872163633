// Package calendar provides the allocation-free data structures behind the
// event-calendar execution engine in package vmpi: a binary min-heap of
// scheduling events with lazy invalidation, a FIFO queue that recycles its
// storage, and a free list for pooled structs.
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
// schedulable at virtual time At. Seq implements lazy invalidation — the
// engine bumps a per-rank sequence number every time it pushes a fresher
// event for the same rank, and discards popped events whose Seq no longer
// matches. Stale events are therefore never removed in place (an O(n)
// operation on a binary heap); they simply lose every future tie.
type Event struct {
	// At is the virtual time the rank becomes schedulable.
	At float64
	// Rank is the rank the event wakes.
	Rank int32
	// Seq is the per-rank push sequence number at push time.
	Seq uint32
}

// less orders events by (At, Rank): earliest virtual time first, ties to
// the lowest rank id — exactly the pick order of the goroutine engine's
// linear scan, which is what makes the two engines replay identically.
// Two events for the same rank at the same time (differing only in Seq)
// compare equal; whichever pops first, the stale one fails its Seq check.
func less(a, b Event) bool {
	return a.At < b.At || (a.At == b.At && a.Rank < b.Rank)
}

// Heap is a binary min-heap of Events ordered by (At, Rank). The zero
// value is ready to use. Push and Pop do not allocate once the backing
// slice has grown to the run's working-set size, and Reset recycles that
// storage across runs.
type Heap struct {
	ev []Event
}

// Reset empties the heap, keeping its storage for reuse.
func (h *Heap) Reset() { h.ev = h.ev[:0] }

// Push adds an event, sifting it up to its ordered position.
func (h *Heap) Push(e Event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h.ev[i], h.ev[parent]) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

// Pop removes and returns the minimum event. ok is false when the heap is
// empty.
func (h *Heap) Pop() (e Event, ok bool) {
	n := len(h.ev)
	if n == 0 {
		return Event{}, false
	}
	e = h.ev[0]
	h.ev[0] = h.ev[n-1]
	h.ev = h.ev[:n-1]
	h.siftDown(0)
	return e, true
}

func (h *Heap) siftDown(i int) {
	n := len(h.ev)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && less(h.ev[l], h.ev[min]) {
			min = l
		}
		if r < n && less(h.ev[r], h.ev[min]) {
			min = r
		}
		if min == i {
			return
		}
		h.ev[i], h.ev[min] = h.ev[min], h.ev[i]
		i = min
	}
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
