package vmpi

import "columbia/internal/vmpi/calendar"

// engineScratch is the allocation-heavy state of one engine run — rank
// records with their coroutines, the run's mailboxes and their index, the
// pooled message free list, the event calendar and the per-node occupancy
// clocks. A fresh engine used to rebuild all of it per run, which put ~2M
// short-lived objects per sweep point on the GC; now a completed run
// resets and recycles its scratch instead, so a steady-state sweep re-runs
// configurations almost entirely inside warm storage.
//
// Scratches travel through a calendar.SharedPool: a run owns its scratch
// exclusively from newEngine until recycle, so concurrent sweep leaves
// each operate on private storage and never bounce cache lines through
// per-message shared state — the pool's lock is taken twice per run, not
// per operation. Only clean completions recycle; errored or canceled runs
// drop theirs, because their mailboxes and rank programs are not provably
// quiescent.
//
// Every rank record owns a parked coroutine, so whatever drops a scratch
// or a record halts its coroutine first (dropRanks): a failed run (stop),
// the trim in recycle, a full pool, and an arena the GC finds unreachable.
// Nothing else ends a parked coroutine.
type engineScratch struct {
	// ranks grows with the largest run and shrinks in recycle's trim; a
	// run slices off the prefix it needs, so the coroutines of past runs
	// stay warm. Rank ids equal indices and never change.
	ranks []*rankState
	// plans holds each rank's collective plan while it runs, one slot per
	// rank record: it grows and is trimmed with ranks. RunPlan clears a
	// slot when its plan ends, so no program data outlives the run.
	plans []planState
	// mail holds this run's mailboxes that have undelivered messages. Only
	// their storage outlives the run: acquireScratch empties the set, so a
	// run never sees, probes or drains another run's (source, tag) queues.
	mail mailIndex
	// msgs pools message structs across runs as well as within one.
	msgs calendar.FreeList[message]
	// heap is the event calendar, one event per schedulable rank; Reset
	// keeps its storage.
	heap calendar.Heap
	// linkBusy and fabricBusy are the per-node FCFS occupancy clocks,
	// re-zeroed (and regrown if the cluster is bigger) per run.
	linkBusy   []float64
	fabricBusy []float64
	// fslab is the uncarved tail of the payload chunk: a big run copies
	// hundreds of thousands of payloads, and carving them from chunks
	// turns one allocation per copy into one per chunk. Carved regions are
	// owned by the receiving program and never reclaimed, so only the tail
	// is reused across runs.
	fslab []float64
}

// fslabChunk is the payload slab refill size in float64s.
const fslabChunk = 4096

// mailKey names one mailbox exactly: receiving rank, sending rank and the
// full-width tag. dst and src are validated to [0, Procs) before any
// lookup, and Procs fits in int32 because calendar events carry rank ids
// as int32 too.
type mailKey struct {
	dst, src int32
	tag      int
}

// hash mixes all 128 key bits (a splitmix64 finalizer); the index masks
// the low bits, so they must depend on every input bit.
func (k mailKey) hash() uint64 {
	z := (uint64(uint32(k.dst))<<32 | uint64(uint32(k.src))) ^ uint64(k.tag)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// mailbox is one (source, tag) queue of a receiving rank, or, while its
// position waits in mailIndex.free, drained storage for the next one.
type mailbox struct {
	key mailKey
	q   msgq
}

// mailSlot is one open-addressing slot of a mailIndex. A slot whose gen is
// not the index's current generation is empty, whatever else it holds;
// drop stamps emptied slots 0.
type mailSlot struct {
	key mailKey
	gen uint32
	box int32
}

const (
	// mailSlotsMin is the table size a run starts from; the index doubles
	// it whenever the run's live mailboxes would fill more than half of it.
	mailSlotsMin = 64
	// msgqSeed is the per-mailbox backing window: most mailboxes never
	// hold more than a couple of in-flight messages, and one that does
	// simply grows out of the window via append.
	msgqSeed = 2
)

// mailIndex is the set of one run's live mailboxes — those holding
// undelivered messages — in box storage, with a linear-probing hash index
// from exact keys to positions in boxes. pop drops a mailbox it drains from
// the index at once and files its position in free, where open reuses it,
// so the storage follows the run's high-water of live mailboxes rather
// than every key it ever used. reset empties the set in O(1) — boxes and
// free are resliced to zero, and bumping the generation stamp retires
// every slot — while the storage stays: the next run reuses the elements
// and queue buffers past len(boxes) and the slot array. Growth moves
// boxes, so no *msgq may be held across open.
type mailIndex struct {
	boxes []mailbox
	free  []int32 // positions in boxes of drained mailboxes, for reuse
	slots []mailSlot
	mask  uint64 // table size in use minus one; at most len(slots)-1
	gen   uint32 // current generation; never 0, the empty slot's stamp
}

// live returns the number of mailboxes in the index.
func (x *mailIndex) live() int { return len(x.boxes) - len(x.free) }

// reset retires every mailbox of the previous run.
func (x *mailIndex) reset() {
	x.boxes = x.boxes[:0]
	x.free = x.free[:0]
	x.resize(mailSlotsMin)
}

// resize switches to a table of n slots (a power of two), allocating only
// when n exceeds the storage, and re-indexes the live boxes — those with
// queued messages — under a new generation. A wrapped generation counter
// clears the storage, so a slot stamped 2^32 generations ago cannot come
// back to life.
func (x *mailIndex) resize(n int) {
	if n > len(x.slots) {
		x.slots = make([]mailSlot, n)
	}
	x.mask = uint64(n - 1)
	x.gen++
	if x.gen == 0 {
		clear(x.slots)
		x.gen = 1
	}
	for i := range x.boxes {
		if b := &x.boxes[i]; b.q.Len() > 0 {
			x.slots[x.find(b.key)] = mailSlot{key: b.key, gen: x.gen, box: int32(i)}
		}
	}
}

// find returns the slot holding k, or the empty slot where k belongs.
func (x *mailIndex) find(k mailKey) uint64 {
	i := k.hash() & x.mask
	for {
		if s := &x.slots[i]; s.gen != x.gen || s.key == k {
			return i
		}
		i = (i + 1) & x.mask
	}
}

// lookup returns the queue for (dst, src, tag), or nil when it holds no
// message.
func (x *mailIndex) lookup(dst, src, tag int) *msgq {
	s := &x.slots[x.find(mailKey{int32(dst), int32(src), tag})]
	if s.gen != x.gen {
		return nil
	}
	return &x.boxes[s.box].q
}

// open returns the queue for (dst, src, tag), creating an empty one when
// the key holds no message; the caller pushes one at once. A new box takes
// a drained position from free, else the next one in boxes, whose storage
// a previous run may have left, drained by its recycle.
func (x *mailIndex) open(dst, src, tag int) *msgq {
	k := mailKey{int32(dst), int32(src), tag}
	i := x.find(k)
	if s := &x.slots[i]; s.gen == x.gen {
		return &x.boxes[s.box].q
	}
	if uint64(2*(x.live()+1)) > x.mask+1 {
		x.resize(2 * int(x.mask+1))
		i = x.find(k)
	}
	var b int32
	if n := len(x.free); n > 0 {
		b = x.free[n-1]
		x.free = x.free[:n-1]
	} else {
		n := len(x.boxes)
		if n == cap(x.boxes) {
			x.growBoxes()
		}
		x.boxes = x.boxes[:n+1]
		b = int32(n)
	}
	x.slots[i] = mailSlot{key: k, gen: x.gen, box: b}
	x.boxes[b].key = k
	return &x.boxes[b].q
}

// pop removes and returns the head message of (dst, src, tag), or nil when
// none is queued. A mailbox that pop drains leaves the index at once; its
// position, queue buffer included, goes to free.
func (x *mailIndex) pop(dst, src, tag int) *message {
	i := x.find(mailKey{int32(dst), int32(src), tag})
	s := &x.slots[i]
	if s.gen != x.gen {
		return nil
	}
	q := &x.boxes[s.box].q
	m := q.Pop()
	if q.Len() == 0 {
		x.free = append(x.free, s.box)
		x.drop(i)
	}
	return m
}

// drop empties slot i by backward-shift deletion: every later slot of the
// probe run whose key may sit at the hole — its home slot does not lie
// cyclically after the hole — moves back into it, and the hole moves on.
// The run stays contiguous, so find needs no tombstones.
func (x *mailIndex) drop(i uint64) {
	for j := (i + 1) & x.mask; x.slots[j].gen == x.gen; j = (j + 1) & x.mask {
		if home := x.slots[j].key.hash(); (j-home)&x.mask >= (j-i)&x.mask {
			x.slots[i] = x.slots[j]
			i = j
		}
	}
	x.slots[i].gen = 0
}

// growBoxes doubles the box storage and seeds each new box's queue with a
// msgqSeed-message window of one shared chunk, so a box's first pushes do
// not each allocate.
func (x *mailIndex) growBoxes() {
	boxes := make([]mailbox, len(x.boxes), max(2*cap(x.boxes), mailSlotsMin/2))
	copy(boxes, x.boxes)
	spare := boxes[len(boxes):cap(boxes)]
	seed := make([]*message, len(spare)*msgqSeed)
	for i := range spare {
		spare[i].q.Reserve(seed[i*msgqSeed : i*msgqSeed : (i+1)*msgqSeed])
	}
	x.boxes = boxes
}

// copyPayload copies a send's payload into a region carved from the float
// slab. Ownership of the copy transfers to the receiving program exactly as
// with a standalone allocation — the region is capped at its length, so a
// receiver that appends reallocates instead of clobbering a neighbour.
// Returns nil for an empty payload, matching append's behaviour, which
// differential tests observe.
func (s *engineScratch) copyPayload(data []float64) []float64 {
	if len(data) == 0 {
		return nil
	}
	if len(s.fslab) < len(data) {
		n := fslabChunk
		if len(data) > n {
			n = len(data)
		}
		s.fslab = make([]float64, n)
	}
	buf := s.fslab[:len(data):len(data)]
	s.fslab = s.fslab[len(data):]
	copy(buf, data)
	return buf
}

// scratchPool recycles engineScratch values across runs and concurrent
// leaves; every run without an arena draws from it.
var scratchPool calendar.SharedPool[engineScratch]

// idleRanksMin is how many rank records, each with its parked coroutine,
// a clean run's scratch keeps beyond its own rank count: recycle trims the
// scratch to max(P, idleRanksMin). 276 of the paper sweep's 311 engine
// runs have at most 256 ranks, so they never re-create a coroutine (about
// 12 allocations each); keeping all 2,048 of the one largest run instead
// raised the sweep's peak RSS by 12%, and trimming to P alone churned.
const idleRanksMin = 256

// acquireScratch draws a scratch — from the run's arena when the caller
// installed one (WithArena), else the process-wide pool — and readies it
// for a run of procs ranks on a cluster of nodes boxes. Missing rank
// records are created with their coroutines; existing ones are reset but
// keep theirs. The previous run's mailboxes, if it left undelivered
// messages, are retired in O(1), whatever its size; only their storage
// carries over.
//
// The scratch pool owns the per-rank records; growing them here is how reuse amortizes them.
func acquireScratch(a *Arena, procs, nodes int) *engineScratch {
	s := a.take()
	if s == nil {
		s = scratchPool.Get()
	}
	for len(s.ranks) < procs {
		s.ranks = append(s.ranks, newRank(len(s.ranks)))
	}
	if n := procs - len(s.plans); n > 0 {
		s.plans = append(s.plans, make([]planState, n)...)
	}
	for _, r := range s.ranks[:procs] {
		r.reset()
	}
	s.mail.reset()
	s.heap.Reset(procs)
	s.linkBusy = resetFloats(s.linkBusy, nodes)
	s.fabricBusy = resetFloats(s.fabricBusy, nodes)
	return s
}

// recycle drains the run's leftover state back into the scratch and returns
// it to the pool. Only called after a clean completion, when every rank's
// program has returned and its coroutine is parked between runs: unmatched
// messages may legally remain queued (the sanitizer is what forbids them,
// and it fails the run instead), so the mailboxes this run still holds —
// and only those — are emptied in box order, and the structs go back to
// the free list with payloads dropped, so no stale data can leak into a
// later run.
func (e *engine) recycle() {
	s := e.scr
	if s == nil {
		return
	}
	e.scr = nil
	for _, r := range e.ranks {
		r.e = nil
	}
	for i := range s.mail.boxes {
		q := &s.mail.boxes[i].q
		for q.Len() > 0 {
			m := q.Pop()
			m.data = nil
			s.msgs.Put(m)
		}
	}
	if keep := max(len(e.ranks), idleRanksMin); len(s.ranks) > keep {
		s.dropRanks(keep)
	}
	// Scratches go home: an arena-backed run refills its own arena, and
	// every other run (or a surplus concurrent one) feeds the process-wide
	// pool. One that neither takes is left to the GC, coroutines halted.
	if !e.arena.put(s) && !scratchPool.Put(s) {
		s.dropRanks(0)
	}
}

// dropRanks halts the coroutines of the rank records from index from on and
// removes those records, and their plan slots, from the scratch.
func (s *engineScratch) dropRanks(from int) {
	for i, r := range s.ranks[from:] {
		r.halt()
		s.ranks[from+i] = nil
	}
	s.ranks = s.ranks[:from]
	if len(s.plans) > from {
		s.plans = append([]planState(nil), s.plans[:from]...)
	}
}

// reset readies a pooled rank record for its next run. id and the
// coroutine are immutable across runs; the record holds no mailboxes —
// those belong to the run (engineScratch.mail).
func (r *rankState) reset() {
	r.now = 0
	r.compute = 0
	r.comm = 0
	r.status = stReady
	r.wantSrc = 0
	r.wantTag = 0
	r.recvResult = nil
	r.anyWake = 0
	r.driven = false
}

// resetFloats returns s resized to n elements, all zero, reusing capacity.
func resetFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
