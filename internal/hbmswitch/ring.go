package hbmswitch

import "pbrouter/internal/sim"

// ring is a growable circular deque. The switch's stage FIFOs
// (input-port batches, tail frames, the write FIFO, HBM-resident
// frames) push at the back and pop at the front; a slice FIFO
// (append + reslice [1:]) leaks its consumed prefix and reallocates
// forever, while the ring reuses one backing array so the steady
// state allocates nothing. The backing array's length is a power of
// two, so indexing is a mask rather than a division. The zero value is
// an empty ring.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued items.
func (r *ring[T]) Len() int { return r.n }

// At returns the i-th queued item (0 = front).
func (r *ring[T]) At(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// Front returns the front item without removing it.
func (r *ring[T]) Front() T { return r.buf[r.head] }

// PushBack appends an item at the back.
func (r *ring[T]) PushBack(v T) {
	r.grow()
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PushFront prepends an item at the front (used to requeue a blocked
// write without reallocating the FIFO).
func (r *ring[T]) PushFront(v T) {
	r.grow()
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

// PopFront removes and returns the front item.
func (r *ring[T]) PopFront() T {
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // drop the reference for the GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Remove deletes the i-th queued item (0 = front) and keeps the rest
// in order: the i items ahead of it move back one slot.
func (r *ring[T]) Remove(i int) {
	mask := len(r.buf) - 1
	for j := i; j > 0; j-- {
		r.buf[(r.head+j)&mask] = r.buf[(r.head+j-1)&mask]
	}
	r.PopFront()
}

// grow doubles the backing array when full, compacting to the front.
func (r *ring[T]) grow() {
	if r.n < len(r.buf) {
		return
	}
	next := make([]T, max(8, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		next[i] = r.At(i)
	}
	r.buf = next
	r.head = 0
}

// oqEntry is one shadowed packet: its ID and the ideal OQ shadow's
// departure time for it.
type oqEntry struct {
	id uint64
	oq sim.Time
}

// takeOQ removes packet id from one (input, output) pair's ring of
// shadowed packets and returns its shadow departure, or false if the
// ring does not hold it (departed twice, or never shadowed). The ring
// is in injection order, and while per-pair egress order holds (the
// fifo-order invariant) every departure is the front, so the normal
// path is one compare and a pop: no hashing and no per-packet map
// entry. A departure that is not the front (a faulted run) is found by
// scanning the pair's ring and removed in place. Either way the result
// is what a map keyed by packet ID would return, for packets whose IDs
// are unique.
func takeOQ(r *ring[oqEntry], id uint64) (sim.Time, bool) {
	for i := 0; i < r.Len(); i++ {
		if e := r.At(i); e.id == id {
			r.Remove(i)
			return e.oq, true
		}
	}
	return 0, false
}
