package stats

// ReorderTracker measures packet reordering at a switch output and the
// resequencing buffer that would be needed to restore order. The
// spraying and parallel-packet-switch baselines use it to quantify the
// reordering cost that SPS+PFI avoid by construction (§3.1 of the
// paper: the reordering buffer is "an order of magnitude higher" than
// the 14.5 MB of frame-assembly SRAM).
//
// Packets carry per-(input,output)-pair sequence numbers. A packet
// arriving while an earlier-sequenced packet of the same pair is still
// missing must be buffered; the tracker integrates the exact buffer
// occupancy a resequencer would see.
type ReorderTracker struct {
	pairs   map[uint64]*pairOrder // pair -> its resequencing state
	held    int64                 // current buffered bytes
	peak    int64                 // high-water buffered bytes
	ooo     int64                 // packets that arrived out of order
	total   int64                 // all packets observed
	maxDisp int64                 // max displacement (seq - expected)
}

// pairOrder is one pair's resequencing state: the next sequence it
// expects and the bytes held for each later sequence already seen.
type pairOrder struct {
	next    int64
	pending map[int64]int // seq -> bytes held; nil until the first gap
}

// NewReorderTracker returns an empty tracker.
func NewReorderTracker() *ReorderTracker {
	return &ReorderTracker{pairs: make(map[uint64]*pairOrder)}
}

// Observe records the arrival of packet seq (0-based, per pair) with
// the given size. Pair identifies the (input, output) flow-order
// domain.
func (r *ReorderTracker) Observe(pair uint64, seq int64, bytes int) {
	r.total++
	st := r.pairs[pair]
	if st == nil {
		st = &pairOrder{}
		r.pairs[pair] = st
	}
	if seq == st.next {
		// In order: deliver it and any buffered successors.
		st.next++
		for len(st.pending) > 0 {
			b, ok := st.pending[st.next]
			if !ok {
				break
			}
			delete(st.pending, st.next)
			r.held -= int64(b)
			st.next++
		}
		return
	}
	if seq < st.next {
		// Duplicate or late retransmission; nothing to buffer.
		return
	}
	r.ooo++
	if d := seq - st.next; d > r.maxDisp {
		r.maxDisp = d
	}
	if st.pending == nil {
		st.pending = make(map[int64]int)
	}
	if _, dup := st.pending[seq]; !dup {
		st.pending[seq] = bytes
		r.held += int64(bytes)
		if r.held > r.peak {
			r.peak = r.held
		}
	}
}

// Total returns the number of packets observed.
func (r *ReorderTracker) Total() int64 { return r.total }

// OutOfOrder returns the number of packets that arrived before some
// earlier-sequenced packet of their pair.
func (r *ReorderTracker) OutOfOrder() int64 { return r.ooo }

// OutOfOrderFraction returns the fraction of packets out of order.
func (r *ReorderTracker) OutOfOrderFraction() float64 {
	if r.total == 0 {
		return 0
	}
	return float64(r.ooo) / float64(r.total)
}

// PeakBufferBytes returns the high-water resequencing buffer occupancy.
func (r *ReorderTracker) PeakBufferBytes() int64 { return r.peak }

// HeldBytes returns the bytes currently waiting for earlier packets.
func (r *ReorderTracker) HeldBytes() int64 { return r.held }

// MaxDisplacement returns the maximum observed sequence displacement.
func (r *ReorderTracker) MaxDisplacement() int64 { return r.maxDisp }
