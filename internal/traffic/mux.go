package traffic

import (
	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
)

// Mux merges several sources into one packet stream in global arrival
// order — the form the switch models consume. It keeps one lookahead
// packet per source and performs a k-way merge over a 4-ary min-heap
// of the live sources keyed by (arrival time, source index), so equal
// arrival times go to the lower-indexed source.
//
// The mux re-assigns each packet's per-(input, output) sequence number
// in arrival order. For one source per input this is identical to the
// source-assigned numbering; when several sources share an input (the
// wavelength-granular ingress, where α·W parallel WDM channels feed
// one port) it defines the arrival order the switch must preserve.
type Mux struct {
	srcs []*Source
	head []*packet.Packet // lookahead packet per source
	heap []muxEntry       // sources with a lookahead packet
	seq  []int64          // per-(input,output) sequence numbers, flat [input*nOut+output]
	nOut int
	pool *packet.PacketPool // shared source pool, if all sources share one
}

// muxEntry is one heap slot: a source and its lookahead arrival time.
type muxEntry struct {
	at  sim.Time
	src int
}

// before orders heap entries by arrival time, then source index.
func (e muxEntry) before(o muxEntry) bool {
	return e.at < o.at || (e.at == o.at && e.src < o.src)
}

// NewMux returns a multiplexer over the given sources.
func NewMux(srcs []*Source) *Mux {
	m := &Mux{
		srcs: srcs,
		head: make([]*packet.Packet, len(srcs)),
		heap: make([]muxEntry, 0, len(srcs)),
	}
	nIn := 0
	for _, s := range srcs {
		if s.Input >= nIn {
			nIn = s.Input + 1
		}
		if len(s.weights) > m.nOut {
			m.nOut = len(s.weights)
		}
	}
	m.seq = make([]int64, nIn*m.nOut)
	if len(srcs) > 0 && srcs[0].alloc != nil {
		m.pool = srcs[0].alloc
		for _, s := range srcs {
			if s.alloc != m.pool {
				m.pool = nil
				break
			}
		}
	}
	for i, s := range srcs {
		p, at := s.Next()
		if p != nil {
			m.head[i] = p
			m.heap = append(m.heap, muxEntry{at, i})
		}
	}
	for i := (len(m.heap) - 2) / 4; i >= 0; i-- {
		m.down(i)
	}
	return m
}

// Recycle returns a dead packet to the sources' shared packet pool.
// Consumers that fully own delivered packets (the hbmswitch run loop)
// call this at packet death so the steady state allocates nothing;
// consumers that retain packets simply never call it. Recycle is a
// no-op unless every source shares one PacketPool.
func (m *Mux) Recycle(p *packet.Packet) {
	if m.pool != nil {
		m.pool.Put(p)
	}
}

// PoolStats snapshots the shared packet pool's counters (zero when
// the sources do not share one pool). It feeds the core-internals
// telemetry probes and the daemon's /metrics.
func (m *Mux) PoolStats() packet.PoolStats {
	if m.pool == nil {
		return packet.PoolStats{}
	}
	return m.pool.Stats()
}

// Next returns the globally next packet by arrival time, or nil when
// every source is idle forever.
func (m *Mux) Next() (*packet.Packet, sim.Time) {
	if len(m.heap) == 0 || m.heap[0].at >= sim.Forever {
		return nil, sim.Forever
	}
	top := &m.heap[0]
	i, at := top.src, top.at
	p := m.head[i]
	if m.head[i], top.at = m.srcs[i].Next(); m.head[i] == nil {
		last := len(m.heap) - 1
		m.heap[0] = m.heap[last]
		m.heap = m.heap[:last]
	}
	m.down(0)
	pair := p.Input*m.nOut + p.Output
	p.Seq = m.seq[pair]
	m.seq[pair]++
	return p, at
}

// down sifts the entry at slot i down to its place below i.
func (m *Mux) down(i int) {
	h := m.heap
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

// Window drains the multiplexer up to the horizon, returning packets
// in arrival order.
func (m *Mux) Window(horizon sim.Time) []*packet.Packet {
	var out []*packet.Packet
	for {
		p, at := m.Next()
		if p == nil || at > horizon {
			return out
		}
		out = append(out, p)
	}
}

// UniformSources builds one source per input for the given traffic
// matrix, all sharing a flow pool, with per-source forked RNG streams.
// It is the common setup for whole-switch experiments.
func UniformSources(m *Matrix, lineRate sim.Rate, kind ArrivalKind, sizes SizeDist, rng *sim.RNG) []*Source {
	pool := NewFlowPool(16, rng.Fork())
	alloc := &packet.PacketPool{}
	var id uint64
	nextID := func() uint64 { id++; return id }
	srcs := make([]*Source, m.N)
	for i := 0; i < m.N; i++ {
		srcs[i] = NewSource(SourceConfig{
			Input:    i,
			LineRate: lineRate,
			Kind:     kind,
			Row:      m.Rates[i],
			Sizes:    sizes,
			RNG:      rng.Fork(),
			Pool:     pool,
			NextID:   nextID,
			Alloc:    alloc,
		})
	}
	return srcs
}

// WavelengthSources builds the wavelength-granular ingress: each input
// port is fed by channels parallel WDM sources of channelRate each
// (α·W channels of R = 40 Gb/s in the reference design), every
// channel carrying the input's traffic-matrix row at the same
// fractional load. The aggregate per-input rate is channels ×
// channelRate; arrivals are smoother and per-packet serialization
// slower than the single-aggregate-source model — the physically
// faithful version of the ingress.
func WavelengthSources(m *Matrix, channels int, channelRate sim.Rate, kind ArrivalKind,
	sizes SizeDist, rng *sim.RNG) []*Source {
	if channels <= 0 {
		panic("traffic: non-positive channel count")
	}
	pool := NewFlowPool(16, rng.Fork())
	alloc := &packet.PacketPool{}
	var id uint64
	nextID := func() uint64 { id++; return id }
	srcs := make([]*Source, 0, m.N*channels)
	for i := 0; i < m.N; i++ {
		for w := 0; w < channels; w++ {
			srcs = append(srcs, NewSource(SourceConfig{
				Input:    i,
				LineRate: channelRate,
				Kind:     kind,
				Row:      m.Rates[i],
				Sizes:    sizes,
				RNG:      rng.Fork(),
				Pool:     pool,
				NextID:   nextID,
				Alloc:    alloc,
			}))
		}
	}
	return srcs
}
