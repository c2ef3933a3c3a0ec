package engine

import "repro/internal/isa"

// pipeCap is the op ring depth: how far a guest may run ahead of the
// scheduler depositing fire-and-forget ops between loads. A power of two
// (the ring indexes with a modulo the compiler reduces to a mask). Deep
// enough that one guest activation deposits a long burst per coroutine
// switch, shallow enough to stay cache-resident.
const pipeCap = 256

// opPipe is the per-thread operation ring between a guest coroutine
// (producer) and the scheduler (consumer). Control moves between the two
// by direct coroutine switch (iter.Pull, see guestSeq) — they never run
// concurrently — so the ring is plain memory: push and pop are an index
// compare and a slot move, no atomics, no parking. A full ring makes the
// guest yield back to the scheduler (see proc.do); the guest is only ever
// resumed once its ring has drained, so the retried push always lands.
type opPipe struct {
	head uint64
	tail uint64
	buf  [pipeCap]isa.Op
}

// tryPush appends op, reporting false when the ring is full (the guest
// must yield so the scheduler can drain it).
func (p *opPipe) tryPush(op isa.Op) bool {
	if p.tail-p.head == pipeCap {
		return false
	}
	p.buf[p.tail%pipeCap] = op
	p.tail++
	return true
}

// len is the number of deposited ops not yet executed.
func (p *opPipe) len() uint64 { return p.tail - p.head }

// tryPop removes the next op, reporting false when the ring is empty.
// The returned pointer aliases the ring slot: it stays valid until the
// producer has been resumed and deposited pipeCap further ops, which
// under the alternating control transfer means it is stable for the
// whole of the current scheduler step.
func (p *opPipe) tryPop() (*isa.Op, bool) {
	op, ok := p.peek()
	if ok {
		p.head++
	}
	return op, ok
}

// peek is tryPop without the removal: the op stays next in the ring until
// drop. The producer is resumed only once the ring is empty, so a peeked
// slot is stable until it is dropped.
func (p *opPipe) peek() (*isa.Op, bool) {
	if p.tail == p.head {
		return nil, false
	}
	return &p.buf[p.head%pipeCap], true
}

// drop removes the op peek returned.
func (p *opPipe) drop() { p.head++ }
