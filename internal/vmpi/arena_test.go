package vmpi

// Tests for worker-private arenas: runs under WithArena recycle their
// scratch through the arena (not the process-wide pool), errored runs drop
// it, and the context plumbing tolerates nil.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"columbia/internal/machine"
	"columbia/internal/par"
)

func TestArenaRecyclesScratchAcrossRuns(t *testing.T) {
	a := NewArena()
	ctx := WithArena(context.Background(), a)
	cl := machine.NewSingleNode(machine.AltixBX2b)
	run := func() {
		t.Helper()
		if _, err := RunCtx(ctx, Config{Cluster: cl, Procs: 8}, func(c par.Comm) {
			par.AllreduceBytes(c, 1024)
		}); err != nil {
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
	// A warm rerun finds the storage the first runs left behind: the same
	// number of mailboxes, carved from the same box and slot arrays, with
	// every queue buffer reused — no new mailbox storage at all.
	mb := &first.mail
	boxes, slots := len(mb.boxes), &mb.slots[0]
	box0 := &mb.boxes[0]
	bufs := make([]*message, boxes)
	for i := range mb.boxes {
		bufs[i] = bufData(&mb.boxes[i].q)
	}
	run()
	if len(mb.boxes) != boxes {
		t.Errorf("warm rerun created %d mailboxes, want the same %d", len(mb.boxes), boxes)
	}
	if &mb.boxes[0] != box0 || &mb.slots[0] != slots {
		t.Error("warm rerun reallocated the mailbox or index storage")
	}
	for i := range mb.boxes {
		if got := bufData(&mb.boxes[i].q); got != bufs[i] {
			t.Errorf("warm rerun reallocated queue storage of mailbox %d", i)
			break
		}
	}
}

// bufData returns the first element of q's backing storage, nil when q has
// none: two queues share storage iff this pointer is the same.
func bufData(q *msgq) *message {
	buf := reflect.ValueOf(q).Elem().FieldByName("buf")
	if buf.Cap() == 0 {
		return nil
	}
	return (*message)(buf.Slice(0, 1).Index(0).Addr().UnsafePointer())
}

// TestArenaMailboxesLiveForOneRun: mailboxes belong to the run that
// created them. After a 64-rank all-to-all, a 2-rank ping-pong on the same
// arena sees (and recycle drains) exactly its own two mailboxes, and a
// wildcard gather still matches the (arrival, source) minimum.
func TestArenaMailboxesLiveForOneRun(t *testing.T) {
	a := NewArena()
	ctx := WithArena(context.Background(), a)
	cl := machine.NewSingleNode(machine.AltixBX2b)
	if _, err := RunCtx(ctx, Config{Cluster: cl, Procs: 64}, func(c par.Comm) {
		par.AlltoallBytes(c, 4096)
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(a.scr.mail.boxes); n < 64*63 {
		t.Fatalf("all-to-all created %d mailboxes, want at least %d", n, 64*63)
	}
	if _, err := RunCtx(ctx, Config{Cluster: cl, Procs: 2}, pingPong(3)); err != nil {
		t.Fatal(err)
	}
	var got []mailKey
	for _, b := range a.scr.mail.boxes {
		got = append(got, b.key)
	}
	want := []mailKey{{dst: 1, src: 0, tag: 3}, {dst: 0, src: 1, tag: 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ping-pong after all-to-all has %d mailboxes (first %v), want only its own %v",
			len(got), got[:min(len(got), 4)], want)
	}

	// Rank s sends at a virtual time that makes arrivals run against rank
	// order in two interleaved groups, so the gather order is the
	// (arrival, source) sort, not the rank sort. Tag 5 into rank 0 reuses
	// the ping-pong's retired key (0, 1, 5).
	const procs = 8
	var srcs []int
	if _, err := RunCtx(ctx, Config{Cluster: cl, Procs: procs}, func(c par.Comm) {
		if c.Rank() == 0 {
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
	// Delay groups (procs-rank)%4: 0 → {4}, 1 → {3, 7}, 2 → {2, 6}, 3 → {1, 5}.
	if fmt.Sprint(srcs) != "[4 3 7 2 6 1 5]" {
		t.Errorf("RecvAny gather after the all-to-all matched %v, want [4 3 7 2 6 1 5]", srcs)
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
