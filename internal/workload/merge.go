package workload

import (
	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
)

// Merged interleaves per-input streams into one global stream in
// arrival order and assigns dense per-(input,output) sequence numbers
// in that order — the same contract traffic.Mux provides for concrete
// Sources, generalized to any traffic.Stream. Like Mux it merges over
// a 4-ary min-heap of the live streams keyed by (arrival time, stream
// index), so ties break toward the lower stream index and the merge is
// deterministic. Streams are primed lazily, in index order, on the
// first Next.
type Merged struct {
	streams []traffic.Stream
	head    []*packet.Packet // lookahead packet per stream
	heap    []mergeEntry     // streams with a lookahead packet
	primed  bool
	seqs    [][]int64 // per-(input, output) sequence numbers, grown on demand
}

// mergeEntry is one heap slot: a stream and its lookahead arrival.
type mergeEntry struct {
	at  sim.Time
	src int
}

// before orders heap entries by arrival time, then stream index.
func (e mergeEntry) before(o mergeEntry) bool {
	return e.at < o.at || (e.at == o.at && e.src < o.src)
}

// Merge builds the k-way merge over the given streams.
func Merge(streams ...traffic.Stream) *Merged {
	return &Merged{
		streams: streams,
		head:    make([]*packet.Packet, len(streams)),
		heap:    make([]mergeEntry, 0, len(streams)),
	}
}

// Next implements traffic.Stream.
func (g *Merged) Next() (*packet.Packet, sim.Time) {
	if !g.primed {
		g.prime()
	}
	if len(g.heap) == 0 {
		return nil, 0
	}
	top := &g.heap[0]
	i, at := top.src, top.at
	p := g.head[i]
	if g.head[i], top.at = g.streams[i].Next(); g.head[i] == nil {
		last := len(g.heap) - 1
		g.heap[0] = g.heap[last]
		g.heap = g.heap[:last]
	}
	g.down(0)
	p.Seq = g.nextSeq(int(p.Input), int(p.Output))
	return p, at
}

// prime pulls every stream's first packet, in stream order, and
// heapifies the live ones.
func (g *Merged) prime() {
	for i, s := range g.streams {
		if p, at := s.Next(); p != nil {
			g.head[i] = p
			g.heap = append(g.heap, mergeEntry{at, i})
		}
	}
	for i := (len(g.heap) - 2) / 4; i >= 0; i-- {
		g.down(i)
	}
	g.primed = true
}

// nextSeq returns the pair's next sequence number and advances it.
func (g *Merged) nextSeq(in, out int) int64 {
	if in >= len(g.seqs) {
		g.seqs = append(g.seqs, make([][]int64, in+1-len(g.seqs))...)
	}
	row := g.seqs[in]
	if out >= len(row) {
		row = append(row, make([]int64, out+1-len(row))...)
		g.seqs[in] = row
	}
	seq := row[out]
	row[out]++
	return seq
}

// down sifts the entry at slot i down to its place below i.
func (g *Merged) down(i int) {
	h := g.heap
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
			if h[k].before(h[best]) {
				best = k
			}
		}
		if !h[best].before(e) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}
