package baseline

import (
	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/stats"
)

// resequencer is the output side of the designs that let packets
// overtake each other (spray and PPS): it releases completions to the
// reorder tracker in time order, sizing the output resequencing
// buffer as it goes.
//
// Completions wait in a 4-ary min-heap keyed by (completion time,
// arrival index). Before each new packet is recorded, every completion
// at or before its arrival is released: arrivals are nondecreasing and
// no packet completes before it arrives, so no later packet can
// complete earlier, and a later one completing at the same instant
// comes after it in arrival order. The release order is therefore
// exactly a stable sort of all completions by time, while only the
// packets still in flight are held, and no packet pointer is kept.
type resequencer struct {
	heap     []reseqEntry
	arrivals uint64   // packets recorded so far
	last     sim.Time // the latest arrival
	lastDone sim.Time // the latest completion

	Tracker   *stats.ReorderTracker
	Delivered stats.Counter
}

// reseqEntry is one in-flight packet: what the tracker needs of it,
// its completion, and its arrival index for ties.
type reseqEntry struct {
	done sim.Time
	idx  uint64
	pair uint64
	seq  int64
	size int32
}

// before orders heap entries by completion time, then arrival index.
func (e *reseqEntry) before(o *reseqEntry) bool {
	return e.done < o.done || (e.done == o.done && e.idx < o.idx)
}

func newResequencer() resequencer { return resequencer{Tracker: stats.NewReorderTracker()} }

// complete records that p leaves the fabric at done and returns done.
// Packets must be recorded in nondecreasing arrival order, and none
// may complete before it arrives; either mistake panics.
func (r *resequencer) complete(p *packet.Packet, done sim.Time) sim.Time {
	if r.arrivals > 0 && p.Arrival < r.last {
		panic("baseline: resequencer needs nondecreasing arrivals, got one earlier than the previous")
	}
	if done < p.Arrival {
		panic("baseline: resequencer got a completion before its own arrival")
	}
	r.last = p.Arrival
	r.release(p.Arrival)
	r.heap = append(r.heap, reseqEntry{
		done: done,
		idx:  r.arrivals,
		pair: uint64(p.Input)<<32 | uint64(uint32(p.Output)),
		seq:  p.Seq,
		size: p.Size,
	})
	r.up(len(r.heap) - 1)
	r.arrivals++
	r.lastDone = max(r.lastDone, done)
	return done
}

// release delivers every held completion at or before t, in order.
func (r *resequencer) release(t sim.Time) {
	for len(r.heap) > 0 && r.heap[0].done <= t {
		e := &r.heap[0]
		r.Tracker.Observe(e.pair, e.seq, int(e.size))
		r.Delivered.Add(e.size)
		last := len(r.heap) - 1
		r.heap[0] = r.heap[last]
		r.heap = r.heap[:last]
		r.down(0)
	}
}

// Finish resequences what is still in flight and returns the achieved
// aggregate delivered rate: every delivered bit over the latest
// completion.
func (r *resequencer) Finish() sim.Rate {
	if r.arrivals == 0 {
		return 0
	}
	r.release(r.lastDone)
	return sim.RateOf(r.Delivered.Bits(), r.lastDone)
}

// PeakReorderBufferBytes returns the resequencing buffer high-water
// the outputs needed.
func (r *resequencer) PeakReorderBufferBytes() int64 { return r.Tracker.PeakBufferBytes() }

// up sifts the entry at slot i up to its place above i.
func (r *resequencer) up(i int) {
	h := r.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// down sifts the entry at slot i down to its place below i.
func (r *resequencer) down(i int) {
	h := r.heap
	n := len(h)
	if i >= n {
		return
	}
	e := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		for k := c + 1; k < c+4 && k < n; k++ {
			if h[k].before(&h[best]) {
				best = k
			}
		}
		if !h[best].before(&e) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}
