package vmpi

// Unit tests for mailIndex, the per-run (dst, src, tag) mailbox index:
// keys are exact, growth keeps every box reachable, a drained mailbox
// leaves the index without cutting another key's probe run, a generation
// wrap leaves no stale hit, and a warm rerun of a key set allocates
// nothing.

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

func TestMailIndexKeysAreExact(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("tag bits above 31 need a 64-bit int")
	}
	hi := 1
	hi <<= 32
	// Each pair differs in one way only and must name two mailboxes.
	pairs := []struct {
		name string
		a, b [3]int // dst, src, tag
	}{
		{"dst/src order", [3]int{3, 7, 11}, [3]int{7, 3, 11}},
		{"tag bit 32", [3]int{1, 2, 5}, [3]int{1, 2, 5 | hi}},
		{"tag bit 62", [3]int{1, 2, 5}, [3]int{1, 2, 5 | hi<<30}},
		{"negative tag", [3]int{1, 2, 9}, [3]int{1, 2, -9}},
		{"min int tag", [3]int{1, 2, 0}, [3]int{1, 2, math.MinInt}},
	}
	for _, p := range pairs {
		var x mailIndex
		x.reset()
		qa := x.open(p.a[0], p.a[1], p.a[2])
		qa.Push(&message{tag: 1})
		if q := x.lookup(p.b[0], p.b[1], p.b[2]); q != nil {
			t.Errorf("%s: %v found %v's mailbox", p.name, p.b, p.a)
		}
		qb := x.open(p.b[0], p.b[1], p.b[2])
		if qb.Len() != 0 {
			t.Errorf("%s: %v opened %v's mailbox", p.name, p.b, p.a)
		}
		qb.Push(&message{tag: 2})
		if q := x.lookup(p.a[0], p.a[1], p.a[2]); q == nil || q.Peek().tag != 1 {
			t.Errorf("%s: %v lost its mailbox", p.name, p.a)
		}
		if len(x.boxes) != 2 {
			t.Errorf("%s: %d mailboxes, want 2", p.name, len(x.boxes))
		}
	}
}

// keySet is n distinct keys spread over ranks and tags the way
// collectives spread them, including negative tags.
func keySet(n int) [][3]int {
	keys := make([][3]int, n)
	for i := range keys {
		keys[i] = [3]int{i % 61, i % 7, i/7 - 100}
	}
	return keys
}

func TestMailIndexGrowthKeepsEveryBox(t *testing.T) {
	var x mailIndex
	x.reset()
	keys := keySet(5000)
	for i, k := range keys {
		x.open(k[0], k[1], k[2]).Push(&message{src: i})
		if int(x.mask+1) < 2*len(x.boxes) {
			t.Fatalf("%d boxes in %d slots: load limit 1/2 exceeded", len(x.boxes), x.mask+1)
		}
	}
	if int(x.mask+1) <= mailSlotsMin {
		t.Fatalf("index never grew: %d slots for %d boxes", x.mask+1, len(x.boxes))
	}
	for i, k := range keys {
		q := x.lookup(k[0], k[1], k[2])
		if q == nil || q.Len() != 1 || q.Peek().src != i {
			t.Fatalf("key %v (box %d) unreachable after growth", k, i)
		}
	}
	if len(x.boxes) != len(keys) {
		t.Errorf("%d boxes for %d distinct keys", len(x.boxes), len(keys))
	}
}

func TestMailIndexResetRetiresEveryKey(t *testing.T) {
	noHits := func(name string, x *mailIndex, keys [][3]int) {
		t.Helper()
		for _, k := range keys {
			if q := x.lookup(k[0], k[1], k[2]); q != nil {
				t.Fatalf("%s: stale hit for %v", name, k)
			}
		}
		if len(x.boxes) != 0 {
			t.Errorf("%s: %d boxes survived", name, len(x.boxes))
		}
	}

	var x mailIndex
	x.reset()
	keys := keySet(300) // grows the table several times
	for _, k := range keys {
		x.open(k[0], k[1], k[2])
	}
	x.reset()
	noHits("reset", &x, keys)

	// Fill a fresh index at generation 1 without growing it, then force
	// the counter to wrap: it comes back to 1, and the stamped slots must
	// not come back with it.
	var w mailIndex
	w.reset()
	keys = keySet(mailSlotsMin/2 - 1)
	for _, k := range keys {
		w.open(k[0], k[1], k[2])
	}
	if w.gen != 1 {
		t.Fatalf("fresh index at generation %d, want 1", w.gen)
	}
	w.gen = math.MaxUint32
	w.reset()
	if w.gen != 1 {
		t.Fatalf("wrapped generation is %d, want 1 (0 is the empty stamp)", w.gen)
	}
	noHits("wrap", &w, keys)
}

func TestMailIndexWarmRerunAllocatesNothing(t *testing.T) {
	var x mailIndex
	keys := keySet(2000)
	m := &message{}
	rerun := func() {
		x.reset()
		for _, k := range keys {
			q := x.open(k[0], k[1], k[2])
			q.Push(m)
			q.Push(m)
		}
		for i := range x.boxes {
			for q := &x.boxes[i].q; q.Len() > 0; {
				q.Pop()
			}
		}
	}
	rerun()
	if a := testing.AllocsPerRun(5, rerun); a != 0 {
		t.Errorf("warm rerun of %d keys allocates %.1f times, want 0", len(keys), a)
	}
}

// TestMailIndexMatchesReference drives open (each followed by a push),
// lookup and pop in random order against a map of FIFOs. The keys crowd
// the starting table's probe runs: a dozen share one home slot, and a
// dozen more have the table's last two slots as home, so their runs wrap
// past the end. Pushes outweigh pops in the first half of each trial, so
// the table grows mid-sequence, and pops outweigh pushes in the second.
// After every step each key must hold exactly the reference's messages, a
// drained key must be gone from the index, the index must hold one slot
// per live mailbox, and the box storage must not outgrow the high-water of
// live mailboxes: open reuses drained positions.
func TestMailIndexMatchesReference(t *testing.T) {
	const mask = mailSlotsMin - 1
	var shared, wrap, rest []mailKey
	for i := 0; len(shared) < 12 || len(wrap) < 12 || len(rest) < 40; i++ {
		k := mailKey{dst: int32(i % 13), src: int32(i % 11), tag: i/7 - 50}
		switch home := k.hash() & mask; {
		case home == 5 && len(shared) < 12:
			shared = append(shared, k)
		case home >= mask-1 && len(wrap) < 12:
			wrap = append(wrap, k)
		case home != 5 && home < mask-1 && len(rest) < 40:
			rest = append(rest, k)
		}
	}
	keys := append(append(shared, wrap...), rest...)

	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		var x mailIndex
		x.reset()
		ref := make(map[mailKey][]int)
		grew, high := false, 0
		const steps = 2000
		for step, next := 0, 0; step < steps; step++ {
			k := keys[rng.Intn(len(keys))]
			pushOdds := 6
			if step >= steps/2 {
				pushOdds = 4
			}
			if rng.Intn(10) < pushOdds {
				x.open(int(k.dst), int(k.src), k.tag).Push(&message{src: next})
				ref[k] = append(ref[k], next)
				next++
			} else {
				m := x.pop(int(k.dst), int(k.src), k.tag)
				switch want := ref[k]; {
				case len(want) == 0 && m != nil:
					t.Fatalf("trial %d step %d: pop %v returned message %d from an empty key", trial, step, k, m.src)
				case len(want) > 0 && (m == nil || m.src != want[0]):
					t.Fatalf("trial %d step %d: pop %v = %v, want message %d", trial, step, k, m, want[0])
				case len(want) > 0:
					ref[k] = want[1:]
				}
			}
			grew = grew || x.mask+1 > mailSlotsMin
			live := 0
			for _, k := range keys {
				want := ref[k]
				q := x.lookup(int(k.dst), int(k.src), k.tag)
				if len(want) == 0 {
					if q != nil {
						t.Fatalf("trial %d step %d: drained key %v still indexed", trial, step, k)
					}
					continue
				}
				live++
				if q == nil || q.Len() != len(want) || q.Peek().src != want[0] {
					t.Fatalf("trial %d step %d: key %v lost its messages (want %d, head %d)", trial, step, k, len(want), want[0])
				}
			}
			if x.live() != live || len(indexedKeys(&x)) != live {
				t.Fatalf("trial %d step %d: %d live mailboxes, %d indexed keys, want %d",
					trial, step, x.live(), len(indexedKeys(&x)), live)
			}
			if high = max(high, live); len(x.boxes) != high {
				t.Fatalf("trial %d step %d: %d boxes of storage for a high-water of %d live mailboxes",
					trial, step, len(x.boxes), high)
			}
		}
		if !grew {
			t.Fatalf("trial %d never grew the table past %d slots", trial, mailSlotsMin)
		}
	}
}
