package packet

// Free pools for the three data units. The switch hot path creates a
// packet per arrival and a batch/frame per aggregation unit; with the
// pools wired in (traffic sources allocate from a PacketPool, the
// switch returns units as they die at egress) the steady state
// allocates nothing. Pools are plain freelists — single-goroutine by
// design, like the schedulers they serve; each switch instance owns
// its own set.
//
// Recycling contract: a unit handed to Put must be dead — no probe,
// histogram, or FIFO may still hold it. The existing Probe contract
// ("implementations must not retain the packet pointers") is exactly
// this rule; batches and frames are only ever recycled after the
// frame that carried them fully drained.

// PoolStats counts a pool's traffic: Gets issued, Hits served from
// the freelist, Grows (chunk carves or fresh allocations — the only
// Gets that cost an allocation, amortized or not), and Recycles
// (units returned through Put). The counters are a pure function of
// the single-goroutine call sequence, so they are as deterministic as
// the simulation driving them; hit ratio = Hits/Gets, and a steady
// state that has stopped growing is exactly Grows staying flat.
type PoolStats struct {
	Gets     uint64
	Hits     uint64
	Grows    uint64
	Recycles uint64
}

// Add accumulates other into s (for aggregating several pools).
func (s *PoolStats) Add(other PoolStats) {
	s.Gets += other.Gets
	s.Hits += other.Hits
	s.Grows += other.Grows
	s.Recycles += other.Recycles
}

// PacketPool recycles Packets. Get returns a zeroed packet. Pool
// misses (the pipeline-fill transient, before recycling catches up)
// carve packets out of chunk arrays, so even warm-up costs one
// allocation per 256 packets rather than one per packet. A chunk is
// 256 × 64 B = 16 KiB, a size the Go allocator places page-aligned, so
// every carved packet occupies exactly one cache line
// (TestPacketLayout).
type PacketPool struct {
	free  []*Packet
	chunk []Packet
	stats PoolStats
}

// packetsPerChunk is the number of packets one pool miss carves.
const packetsPerChunk = 256

// Get returns a packet with all fields zeroed.
func (pp *PacketPool) Get() *Packet {
	pp.stats.Gets++
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free = pp.free[:n-1]
		*p = Packet{}
		pp.stats.Hits++
		return p
	}
	if len(pp.chunk) == 0 {
		pp.chunk = make([]Packet, packetsPerChunk)
		pp.stats.Grows++
	}
	p := &pp.chunk[0]
	pp.chunk = pp.chunk[1:]
	return p
}

// Put returns a dead packet to the pool.
func (pp *PacketPool) Put(p *Packet) {
	pp.stats.Recycles++
	pp.free = append(pp.free, p)
}

// Stats snapshots the pool's counters.
func (pp *PacketPool) Stats() PoolStats { return pp.stats }

// BatchPool recycles Batches, keeping each batch's Frags capacity.
// Like PacketPool, misses carve batches (and their initial Frags
// storage) out of chunk arrays.
type BatchPool struct {
	free   []*Batch
	chunk  []Batch
	fchunk []Frag
	stats  PoolStats
}

// fragsPerBatch is the initial Frags capacity carved for a fresh
// batch. A batch that collects more re-allocates once and then keeps
// the grown capacity through recycling.
const fragsPerBatch = 8

// Get returns a batch with zeroed fields and an empty Frags slice.
func (bp *BatchPool) Get() *Batch {
	bp.stats.Gets++
	if n := len(bp.free); n > 0 {
		b := bp.free[n-1]
		bp.free = bp.free[:n-1]
		frags := b.Frags[:0]
		*b = Batch{Frags: frags}
		bp.stats.Hits++
		return b
	}
	if len(bp.chunk) == 0 {
		bp.chunk = make([]Batch, 128)
		bp.stats.Grows++
	}
	b := &bp.chunk[0]
	bp.chunk = bp.chunk[1:]
	if len(bp.fchunk) < fragsPerBatch {
		bp.fchunk = make([]Frag, 128*fragsPerBatch)
		bp.stats.Grows++
	}
	b.Frags = bp.fchunk[:0:fragsPerBatch]
	bp.fchunk = bp.fchunk[fragsPerBatch:]
	return b
}

// Put returns a dead batch to the pool. Fragment packet pointers are
// dropped so the pool does not pin packets for the GC.
func (bp *BatchPool) Put(b *Batch) {
	bp.stats.Recycles++
	for i := range b.Frags {
		b.Frags[i].Pkt = nil
	}
	bp.free = append(bp.free, b)
}

// Stats snapshots the pool's counters.
func (bp *BatchPool) Stats() PoolStats { return bp.stats }

// FramePool recycles Frames, keeping each frame's Batches capacity.
type FramePool struct {
	free  []*Frame
	stats PoolStats
}

// Get returns a frame with zeroed fields and an empty Batches slice.
func (fp *FramePool) Get() *Frame {
	fp.stats.Gets++
	if n := len(fp.free); n > 0 {
		f := fp.free[n-1]
		fp.free = fp.free[:n-1]
		batches := f.Batches[:0]
		*f = Frame{Batches: batches}
		fp.stats.Hits++
		return f
	}
	fp.stats.Grows++
	return &Frame{}
}

// Put returns a dead frame to the pool, dropping its batch pointers.
func (fp *FramePool) Put(f *Frame) {
	fp.stats.Recycles++
	for i := range f.Batches {
		f.Batches[i] = nil
	}
	fp.free = append(fp.free, f)
}

// Stats snapshots the pool's counters.
func (fp *FramePool) Stats() PoolStats { return fp.stats }
