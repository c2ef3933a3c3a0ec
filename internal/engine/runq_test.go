package engine

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mem"
)

// The tournament tree must agree with a brute-force scan over the ready
// threads after every set and remove: smallest clock first, ties to the
// lowest thread ID. Global thread IDs are offset from the leaf slots, as
// in a block-parallel shard, so the root must identify the thread by its
// key rather than by its slot.
func TestRunqOrder(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 16, 64, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		var q runq
		q.init(n)
		ts := make([]thread, n)
		in := make([]bool, n)
		for i := range ts {
			ts[i] = thread{id: 3*n + i, slot: i}
		}
		refMin := func() int {
			best := -1
			for i := range ts {
				if in[i] && (best < 0 || ts[i].time < ts[best].time) {
					best = i // ascending slots, so ties keep the lowest ID
				}
			}
			return best
		}
		enter := func(i int, clock int64) {
			ts[i].time = clock
			if err := q.update(&ts[i]); err != nil {
				t.Fatalf("n=%d: update: %v", n, err)
			}
			in[i] = true
		}
		for step := 0; step < 20*n+200; step++ {
			switch op := rng.Intn(8); {
			case op == 0:
				i := rng.Intn(n)
				q.remove(&ts[i])
				in[i] = false
			case op == 1:
				// Take out the current minimum, then re-insert it later
				// or at the same clock: the recvNext / wake pattern.
				if m := refMin(); m >= 0 {
					q.remove(&ts[m])
					in[m] = false
					if rng.Intn(2) == 0 {
						enter(m, ts[m].time+int64(rng.Intn(3)))
					}
				}
			default:
				// Dense clocks force ID tie-breaks; a key may also move
				// down, as a grant can re-key a thread below its old clock.
				enter(rng.Intn(n), int64(rng.Intn(2*n+4)))
			}
			m := refMin()
			if m < 0 {
				if q.min() != emptyKey {
					t.Fatalf("n=%d step %d: min = %#x, want empty", n, step, q.min())
				}
				continue
			}
			want, _ := packKey(&ts[m])
			if got := q.min(); got != want {
				t.Fatalf("n=%d step %d: min = thread %d at %d, want thread %d at %d",
					n, step, got&idMask, got>>idBits, ts[m].id, ts[m].time)
			}
			if !q.isMin(m) {
				t.Fatalf("n=%d step %d: isMin(%d) false for the minimum", n, step, m)
			}
		}
	}
}

// Removing the minimum and re-entering it must move the root: later (the
// thread ran an op), at an equal clock (the tie goes to the lower ID), and
// below every other key (a grant re-keys a thread back in time).
func TestRunqReinsert(t *testing.T) {
	var q runq
	q.init(3)
	ts := []thread{{id: 0, slot: 0}, {id: 1, slot: 1, time: 5}, {id: 2, slot: 2, time: 5}}
	rekey := func(i int, clock int64) {
		ts[i].time = clock
		if err := q.update(&ts[i]); err != nil {
			t.Fatal(err)
		}
	}
	wantMin := func(id int) {
		t.Helper()
		if got := q.min(); got == emptyKey || int(got&idMask) != id {
			t.Fatalf("min = %#x, want thread %d", got, id)
		}
	}
	for i := range ts {
		rekey(i, ts[i].time)
	}
	wantMin(0)
	q.remove(&ts[0])
	wantMin(1)
	rekey(0, 5)
	wantMin(0)
	q.remove(&ts[0])
	rekey(0, 10)
	wantMin(1)
	q.remove(&ts[1])
	wantMin(2)
	rekey(1, 1)
	wantMin(1)
	for i := range ts {
		q.remove(&ts[i])
	}
	if q.min() != emptyKey {
		t.Fatalf("drained tree: min = %#x, want empty", q.min())
	}
}

// A clock past the key's 48 bits must fail the run with an error naming
// the thread and the clock, whether the loop, an inline guest step, or a
// block-parallel shard executes the op — never misorder silently.
func TestClockOverflowFailsLoudly(t *testing.T) {
	const huge = 1 << 50
	overflow := func(p Proc) {
		if p.ID() == 1 {
			p.Compute(huge)
		}
		p.Store(mem.Addr(0x1000+p.ID()*64), 1)
	}
	cases := []struct {
		name   string
		h      Hierarchy
		guests []Guest
	}{
		{"serial", newNullHierarchy(), []Guest{overflow, overflow}},
		// Thread 0's retirement takes the ctx-poll step, so thread 1's
		// ops run inline on its own stack.
		{"inline", newNullHierarchy(), []Guest{func(p Proc) {}, func(p Proc) { p.Compute(huge) }}},
		{"block-parallel", newShardedNullHierarchy(4, 2), []Guest{overflow, overflow, overflow, overflow}},
	}
	for _, c := range cases {
		_, err := New(c.h, c.guests).Run()
		if err == nil {
			t.Fatalf("%s: run succeeded with a clock past 2^48", c.name)
		}
		msg := err.Error()
		if !strings.Contains(msg, "thread 1 ") || !strings.Contains(msg, strconv.Itoa(huge)) {
			t.Errorf("%s: error %q does not name thread 1 and clock %d", c.name, msg, huge)
		}
	}
}

// More guests than 16-bit thread IDs can key must be refused by RunCtx
// (before any per-thread state is allocated), not run misordered.
func TestTooManyGuestsRefused(t *testing.T) {
	_, err := New(newNullHierarchy(), make([]Guest, maxThreads+1)).Run()
	if err == nil {
		t.Fatalf("%d guests accepted", maxThreads+1)
	}
	if msg := err.Error(); !strings.Contains(msg, "thread 65536 ") || !strings.Contains(msg, "clock 0") {
		t.Errorf("error %q does not name thread 65536 and clock 0", msg)
	}
}
