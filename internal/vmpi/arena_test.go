package vmpi

// Tests for worker-private arenas: runs under WithArena recycle their
// scratch through the arena (not the process-wide pool), errored runs drop
// it, and the context plumbing tolerates nil.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"columbia/internal/machine"
	"columbia/internal/par"
)

// queuedExchange sends bytes from every rank to every other and receives
// them only after a barrier, so all P·(P-1) messages wait in mailboxes at
// once: none finds its receiver blocked on it.
func queuedExchange(bytes float64) func(par.Comm) {
	return func(c par.Comm) {
		for d := 0; d < c.Size(); d++ {
			if d != c.Rank() {
				c.SendBytes(d, 1, bytes)
			}
		}
		c.Barrier()
		for s := 0; s < c.Size(); s++ {
			if s != c.Rank() {
				c.RecvBytes(s, 1)
			}
		}
	}
}

// indexedKeys lists the keys mailIndex x holds, in slot order.
func indexedKeys(x *mailIndex) []mailKey {
	var keys []mailKey
	for _, s := range x.slots[:x.mask+1] {
		if s.gen == x.gen {
			keys = append(keys, s.key)
		}
	}
	return keys
}

func TestArenaRecyclesScratchAcrossRuns(t *testing.T) {
	a := NewArena()
	ctx := WithArena(context.Background(), a)
	cl := machine.NewSingleNode(machine.AltixBX2b)
	const procs = 8
	run := func() {
		t.Helper()
		if _, err := RunCtx(ctx, Config{Cluster: cl, Procs: procs}, queuedExchange(1024)); err != nil {
			t.Fatal(err)
		}
	}
	run()
	first := a.scr
	if first == nil {
		t.Fatal("clean arena run did not refill its arena")
	}
	run()
	if a.scr != first {
		t.Error("second run did not reuse the arena's scratch")
	}
	mb := &first.mail
	if n, live := len(mb.boxes), mb.live(); n != procs*(procs-1) || live != 0 {
		t.Fatalf("the exchange held %d mailboxes at once and left %d, want %d and 0", n, live, procs*(procs-1))
	}
	// A warm rerun finds the storage the first runs left behind: the same
	// mailbox high-water, carved from the same box, free-list and slot
	// arrays, with every queue buffer reused — no new mailbox storage at
	// all.
	boxes, box0, free0, slots := len(mb.boxes), &mb.boxes[0], &mb.free[0], &mb.slots[0]
	bufs := make([]unsafe.Pointer, boxes)
	for i := range mb.boxes {
		bufs[i] = bufData(&mb.boxes[i].q)
	}
	run()
	if len(mb.boxes) != boxes {
		t.Errorf("warm rerun used %d mailboxes, want the same %d", len(mb.boxes), boxes)
	}
	if &mb.boxes[0] != box0 || &mb.free[0] != free0 || &mb.slots[0] != slots {
		t.Error("warm rerun reallocated the mailbox or index storage")
	}
	for i := range mb.boxes {
		if got := bufData(&mb.boxes[i].q); got == nil || got != bufs[i] {
			t.Errorf("warm rerun reallocated queue storage of mailbox %d", i)
			break
		}
	}
}

// bufData returns the address of q's backing storage, nil when q has none:
// two queues share storage iff this pointer is the same.
func bufData(q *msgq) unsafe.Pointer {
	return reflect.ValueOf(q).Elem().FieldByName("buf").UnsafePointer()
}

// TestArenaMailboxesLiveForOneRun: a mailbox lives only while it holds
// undelivered messages, and only in the run that sent them. A 64-rank
// exchange that queues all 64·63 messages at once, and then par's
// all-to-all, leave no mailbox after a clean run. A send nobody receives
// leaves its own, which the next run on the arena never sees, and a
// wildcard gather over that key still matches the (arrival, source)
// minimum.
func TestArenaMailboxesLiveForOneRun(t *testing.T) {
	a := NewArena()
	ctx := WithArena(context.Background(), a)
	cl := machine.NewSingleNode(machine.AltixBX2b)
	const wide = 64
	if _, err := RunCtx(ctx, Config{Cluster: cl, Procs: wide}, queuedExchange(4096)); err != nil {
		t.Fatal(err)
	}
	if n := len(a.scr.mail.boxes); n != wide*(wide-1) {
		t.Fatalf("queued exchange held %d mailboxes at once, want %d", n, wide*(wide-1))
	}
	if n, keys := a.scr.mail.live(), indexedKeys(&a.scr.mail); n != 0 || len(keys) != 0 {
		t.Fatalf("queued exchange left %d mailboxes, %d indexed keys, want none", n, len(keys))
	}
	if _, err := RunCtx(ctx, Config{Cluster: cl, Procs: wide}, func(c par.Comm) {
		par.AlltoallBytes(c, 4096)
	}); err != nil {
		t.Fatal(err)
	}
	if n, keys := a.scr.mail.live(), indexedKeys(&a.scr.mail); n != 0 || len(keys) != 0 {
		t.Fatalf("all-to-all left %d mailboxes, %d indexed keys, want none", n, len(keys))
	}

	// Rank 1's send on tag 5 is never received.
	if _, err := RunCtx(ctx, Config{Cluster: cl, Procs: 2}, func(c par.Comm) {
		if c.Rank() == 1 {
			c.SendBytes(0, 5, 64)
		}
	}); err != nil {
		t.Fatal(err)
	}
	want := []mailKey{{dst: 0, src: 1, tag: 5}}
	if got := indexedKeys(&a.scr.mail); a.scr.mail.live() != 1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("unmatched send left %d mailboxes, keys %v, want only %v", a.scr.mail.live(), got, want)
	}

	// Rank s sends at a virtual time that makes arrivals run against rank
	// order in two interleaved groups, so the gather order is the
	// (arrival, source) sort, not the rank sort. Tag 5 into rank 0 reuses
	// the unmatched key (0, 1, 5), which must be gone before anything is
	// sent.
	const procs = 8
	var srcs []int
	stale := false
	if _, err := RunCtx(ctx, Config{Cluster: cl, Procs: procs}, func(c par.Comm) {
		if c.Rank() == 0 {
			stale = c.(*comm).e.scr.mail.lookup(0, 1, 5) != nil
			for i := 1; i < procs; i++ {
				s, _ := c.(*comm).RecvAny(5)
				srcs = append(srcs, s)
			}
			return
		}
		c.Compute(machine.Work{Flops: float64((procs-c.Rank())%4) * 1e8, Efficiency: 1})
		c.SendBytes(0, 5, 64)
	}); err != nil {
		t.Fatal(err)
	}
	if stale {
		t.Error("the gather found the previous run's unmatched key (0, 1, 5) indexed")
	}
	// Delay groups (procs-rank)%4: 0 → {4}, 1 → {3, 7}, 2 → {2, 6}, 3 → {1, 5}.
	if fmt.Sprint(srcs) != "[4 3 7 2 6 1 5]" {
		t.Errorf("RecvAny gather after the unmatched send matched %v, want [4 3 7 2 6 1 5]", srcs)
	}
	if n := a.scr.mail.live(); n != 0 {
		t.Errorf("gather left %d mailboxes, want none", n)
	}
}

// TestPostedReceivesOpenNoMailbox: when every receive is posted before its
// send, each message goes straight to its blocked receiver, so the run
// never opens a mailbox. The sanitizer sees the handoffs as matched, and
// one send nobody receives still fails the run as unmatched.
func TestPostedReceivesOpenNoMailbox(t *testing.T) {
	cl := machine.NewSingleNode(machine.AltixBX2b)
	const procs, rounds = 6, 4
	program := func(orphan bool) func(par.Comm) {
		return func(c par.Comm) {
			clock := c.(Clock)
			for i := 0; i < rounds; i++ {
				if c.Rank() == 0 {
					// Rank s sends only at i·P+s milliseconds, long after
					// rank 0 posted the receive for it.
					for s := 1; s < procs; s++ {
						c.RecvBytes(s, i)
					}
					continue
				}
				clock.Elapse(1e-3*float64(i*procs+c.Rank()) - c.Now())
				c.SendBytes(0, i, 512)
			}
			if orphan && c.Rank() == procs-1 {
				c.SendBytes(0, rounds, 8)
			}
		}
	}
	for _, sanitize := range []bool{false, true} {
		a := NewArena()
		ctx := WithArena(context.Background(), a)
		if _, err := RunCtx(ctx, Config{Cluster: cl, Procs: procs, Sanitize: sanitize}, program(false)); err != nil {
			t.Fatalf("sanitize=%v: %v", sanitize, err)
		}
		if n := len(a.scr.mail.boxes); n != 0 {
			t.Errorf("sanitize=%v: pre-posted receives opened %d mailboxes, want none", sanitize, n)
		}
	}
	_, err := TryRun(Config{Cluster: cl, Procs: procs, Sanitize: true}, program(true))
	var re *RunError
	if !errors.As(err, &re) || re.Kind != ErrSanitizer || !strings.Contains(re.Msg, "unmatched") {
		t.Fatalf("orphan send: err = %v, want an unmatched sanitizer violation", err)
	}
}

func TestArenaErroredRunDropsScratch(t *testing.T) {
	a := NewArena()
	ctx := WithArena(context.Background(), a)
	cl := machine.NewSingleNode(machine.AltixBX2b)
	if _, err := RunCtx(ctx, Config{Cluster: cl, Procs: 2}, func(c par.Comm) {
		c.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	if a.scr == nil {
		t.Fatal("clean run did not refill the arena")
	}
	_, err := RunCtx(ctx, Config{Cluster: cl, Procs: 2}, func(c par.Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		c.Barrier()
	})
	if err == nil {
		t.Fatal("want a rank-panic error")
	}
	// The panicking run took the scratch and must not have returned it: a
	// non-quiescent scratch is dropped, and the next clean run starts cold.
	if a.scr != nil {
		t.Error("errored run returned its scratch to the arena")
	}
}

func TestWithArenaNil(t *testing.T) {
	ctx := context.Background()
	if WithArena(ctx, nil) != ctx {
		t.Error("WithArena(nil) should be the identity")
	}
	if arenaFrom(ctx) != nil {
		t.Error("arenaFrom on a bare context should be nil")
	}
}
