package packet

import (
	"fmt"

	"pbrouter/internal/sim"
)

// Frag is a contiguous byte range of one packet carried inside a
// batch. Off is the offset within the packet. A packet whose size is
// not a multiple of the remaining batch space straddles two (or, if
// larger than a batch, more) consecutive batches of the same
// (input, output) pair, as §3.2 ➀ allows.
//
// A Frag is 16 B: at 64 B packets a 4 KB batch holds 64 of them, so
// the batch's fragment list is one 1 KiB array.
type Frag struct {
	Pkt *Packet
	Off int32
	Len int32
}

// Batch is a fixed-size aggregation of packet fragments sharing one
// switch output, built at an input port (§3.2 ➀). Pad is the number of
// filler bytes appended when a batch is flushed before filling
// (used by frame padding / the latency bypass, §4).
type Batch struct {
	ID     uint64
	Input  int
	Output int
	Size   int // fixed batch size k in bytes
	Frags  []Frag
	Pad    int

	// Pipeline timestamps, filled by the switch simulator for the
	// per-stage latency breakdown.
	Completed sim.Time // batch fully assembled at the input port
	AtTail    sim.Time // delivered across the crossbar to the tail SRAM
}

// DataBytes returns the number of real packet bytes in the batch.
func (b *Batch) DataBytes() int {
	n := 0
	for _, f := range b.Frags {
		n += int(f.Len)
	}
	return n
}

// Validate checks the batch fill invariant: fragments plus padding
// exactly fill the fixed size, fragment ranges lie within their
// packets, and all fragments share the batch's output.
func (b *Batch) Validate() error {
	if b.DataBytes()+b.Pad != b.Size {
		return fmt.Errorf("batch %d: data %d + pad %d != size %d",
			b.ID, b.DataBytes(), b.Pad, b.Size)
	}
	for _, f := range b.Frags {
		if f.Len <= 0 || f.Off < 0 || f.Off+f.Len > f.Pkt.Size {
			return fmt.Errorf("batch %d: bad frag [%d,%d) of packet %d size %d",
				b.ID, f.Off, f.Off+f.Len, f.Pkt.ID, f.Pkt.Size)
		}
		if int(f.Pkt.Output) != b.Output {
			return fmt.Errorf("batch %d for output %d contains packet %d for output %d",
				b.ID, b.Output, f.Pkt.ID, f.Pkt.Output)
		}
	}
	return nil
}

// SliceBytes returns the size of one of the n equal slices the
// cyclical crossbar cuts the batch into (k/N, 256 B in the reference
// design). It panics if the batch size is not divisible by n: the
// architecture requires k to be exactly N interface widths.
func (b *Batch) SliceBytes(n int) int {
	if n <= 0 || b.Size%n != 0 {
		panic(fmt.Sprintf("packet: batch size %d not divisible into %d slices", b.Size, n))
	}
	return b.Size / n
}

// Batcher assembles packets for a single (input port, output) queue
// into fixed-size batches. It mirrors the per-output SRAM queues of
// §3.2 ➀: packets are appended back to back; a packet may straddle
// batch boundaries; a batch is emitted exactly when full.
type Batcher struct {
	input, output int
	size          int
	nextID        func() uint64

	cur    *Batch
	fill   int
	queued int        // bytes buffered including the partially-filled batch
	done   []*Batch   // scratch for Add's return value, reused per call
	pool   *BatchPool // optional; nil allocates fresh batches
}

// NewBatcher returns a batcher producing batches of the given size.
// nextID supplies globally unique batch IDs (shared across batchers).
func NewBatcher(input, output, size int, nextID func() uint64) *Batcher {
	if size <= 0 {
		panic("packet: non-positive batch size")
	}
	return &Batcher{input: input, output: output, size: size, nextID: nextID}
}

// SetPool makes the batcher draw batches from the given pool instead
// of the heap. The consumer must Put batches back when they die.
func (a *Batcher) SetPool(bp *BatchPool) { a.pool = bp }

// QueuedBytes returns the bytes currently buffered awaiting batch
// completion (the partial batch).
func (a *Batcher) QueuedBytes() int { return a.queued }

// Add appends a packet and returns the batches it completed (zero or
// more; a packet larger than the batch size completes several). The
// returned slice is scratch storage owned by the batcher and is
// overwritten by the next Add call, so callers must consume it before
// adding another packet.
func (a *Batcher) Add(p *Packet) []*Batch {
	if int(p.Output) != a.output {
		panic(fmt.Sprintf("packet: packet for output %d added to batcher for output %d",
			p.Output, a.output))
	}
	done := a.done[:0]
	size := int(p.Size)
	off := 0
	a.queued += size
	for off < size {
		if a.cur == nil {
			var b *Batch
			if a.pool != nil {
				b = a.pool.Get()
			} else {
				b = &Batch{Frags: make([]Frag, 0, 4)}
			}
			b.ID, b.Input, b.Output, b.Size = a.nextID(), a.input, a.output, a.size
			a.cur = b
			a.fill = 0
		}
		n := size - off
		if room := a.size - a.fill; n > room {
			n = room
		}
		a.cur.Frags = append(a.cur.Frags, Frag{Pkt: p, Off: int32(off), Len: int32(n)})
		a.fill += n
		off += n
		if a.fill == a.size {
			done = append(done, a.cur)
			a.queued -= a.size
			a.cur = nil
		}
	}
	a.done = done
	return done
}

// Flush pads out and emits the partial batch, or returns nil if the
// queue is empty. Used by the padded-frame / bypass path.
func (a *Batcher) Flush() *Batch {
	if a.cur == nil {
		return nil
	}
	b := a.cur
	b.Pad = a.size - a.fill
	a.queued -= a.fill
	a.cur = nil
	return b
}

// Unbatcher reverses batching at an output port (§3.2 ➅): it consumes
// batches in order and emits each packet once its final byte has
// arrived. It verifies byte-accurate reassembly: fragments of a packet
// must arrive in offset order with no gaps or overlaps. Reassembly
// progress lives on the packets themselves (Packet.reasm), so the hot
// path touches no map; a packet must therefore pass through exactly
// one Unbatcher.
type Unbatcher struct {
	pending int       // packets with fragments still in flight
	done    []*Packet // scratch for Add's return value, reused per call
}

// NewUnbatcher returns an empty reassembler.
func NewUnbatcher() *Unbatcher {
	return &Unbatcher{}
}

// Add consumes one batch and returns the packets completed by it, in
// fragment order. It returns an error if a fragment is out of order
// for its packet, which would indicate a switching bug that reordered
// or dropped part of a packet. The returned slice is scratch storage
// owned by the unbatcher and is overwritten by the next Add call.
func (u *Unbatcher) Add(b *Batch) ([]*Packet, error) {
	done := u.done[:0]
	u.done = done
	for _, f := range b.Frags {
		have := f.Pkt.reasm
		if f.Off != have {
			u.done = done
			return done, fmt.Errorf("packet %d: fragment at offset %d but have %d bytes",
				f.Pkt.ID, f.Off, have)
		}
		have += f.Len
		if have == f.Pkt.Size {
			if f.Off != 0 {
				u.pending--
			}
			f.Pkt.reasm = 0
			done = append(done, f.Pkt)
		} else {
			if f.Off == 0 {
				u.pending++
			}
			f.Pkt.reasm = have
		}
	}
	u.done = done
	return done, nil
}

// Pending returns the number of packets with fragments still in flight.
func (u *Unbatcher) Pending() int { return u.pending }
