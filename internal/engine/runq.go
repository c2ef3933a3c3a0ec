package engine

import (
	"fmt"
	"math/bits"
)

// Run-queue keys pack (local clock, thread ID) into one uint64 so the
// scheduler's total order — smallest clock first, ties to the lowest
// thread ID — is a single unsigned compare. Both executors (the serial
// loop and the block-parallel shards) order threads by these keys.
const (
	idBits = 16
	idMask = 1<<idBits - 1

	// maxThreads is the largest thread count whose IDs fit the key.
	maxThreads = 1 << idBits

	// clockLimit bounds the clocks a key can carry: 48 bits, less the one
	// clock whose key for thread 0xffff would collide with emptyKey.
	clockLimit = 1<<(64-idBits) - 1

	// emptyKey marks a leaf with no runnable thread (blocked or done) and
	// an empty queue at the root; it orders after every real key.
	emptyKey = ^uint64(0)
)

// packKey returns t's run-queue key, or an error naming the thread and
// its clock when the clock no longer fits the key's 48 bits — a run that
// far out would otherwise misorder silently.
func packKey(t *thread) (uint64, error) {
	if uint64(t.time) >= clockLimit {
		return 0, clockOverflow(t)
	}
	return uint64(t.time)<<idBits | uint64(t.id), nil
}

// clockOverflow builds packKey's error out of line, keeping packKey
// small enough to inline into the per-op re-key.
//
//go:noinline
func clockOverflow(t *thread) error {
	return fmt.Errorf("engine: thread %d at clock %d: clock exceeds the run queue's %d-bit range",
		t.id, t.time, 64-idBits)
}

// runq is a winner tournament tree over the keys of a fixed set of thread
// slots. Leaf i holds slot i's key, or emptyKey while that thread is
// blocked or done; every inner node holds the smaller of its two
// children, so the root is the (clock, ID) minimum of all ready threads.
// Setting a leaf rewrites the path to the root: log2 of the slot count
// branch-free mins over one contiguous array, with no pointer chasing and
// no decrease-key special case — a thread's key may move in either
// direction while it stays in the tree.
//
// The serial loop gives thread i slot i; block-parallel shards number
// their threads densely from 0 (thread.slot). Keys carry the global
// thread ID either way, so min identifies the thread.
type runq struct {
	leaves int      // slot count rounded up to a power of two
	node   []uint64 // node[1] is the root; slot i's leaf is node[leaves+i]
}

// init sizes the tree for slots threads, all absent.
func (q *runq) init(slots int) {
	q.leaves = 1
	if slots > 1 {
		q.leaves = 1 << bits.Len(uint(slots-1))
	}
	q.node = make([]uint64, 2*q.leaves)
	for i := range q.node {
		q.node[i] = emptyKey
	}
}

// min is the smallest key in the tree, emptyKey when no thread is ready.
func (q *runq) min() uint64 { return q.node[1] }

// isMin reports whether slot's leaf is the root: its thread is the one
// the scheduler runs next.
func (q *runq) isMin(slot int) bool { return q.node[1] == q.node[q.leaves+slot] }

// set stores key k at slot's leaf and replays the path to the root.
func (q *runq) set(slot int, k uint64) {
	i := q.leaves + slot
	q.node[i] = k
	for i > 1 {
		k = min(k, q.node[i^1])
		i >>= 1
		q.node[i] = k
	}
}

// update (re)enters ready thread t at its current clock.
func (q *runq) update(t *thread) error {
	k, err := packKey(t)
	if err != nil {
		return err
	}
	q.set(t.slot, k)
	return nil
}

// remove takes t out of the tree (blocked or done).
func (q *runq) remove(t *thread) { q.set(t.slot, emptyKey) }
