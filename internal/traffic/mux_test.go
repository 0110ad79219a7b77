package traffic

import (
	"math"
	"testing"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
)

func TestMuxMergesInArrivalOrder(t *testing.T) {
	rng := sim.NewRNG(1)
	srcs := UniformSources(Uniform(4, 0.8), 100*sim.Gbps, Poisson, Fixed(1500), rng)
	mux := NewMux(srcs)
	prev := sim.Time(-1)
	for i := 0; i < 5000; i++ {
		p, at := mux.Next()
		if p == nil {
			t.Fatal("mux dried up")
		}
		if at < prev {
			t.Fatalf("arrival order violated: %v after %v", at, prev)
		}
		prev = at
	}
}

func TestMuxSeqsArePerPairConsecutive(t *testing.T) {
	rng := sim.NewRNG(2)
	srcs := UniformSources(Uniform(4, 0.5), 100*sim.Gbps, Poisson, IMIX(), rng)
	mux := NewMux(srcs)
	next := map[uint64]int64{}
	for i := 0; i < 5000; i++ {
		p, _ := mux.Next()
		pair := uint64(p.Input)<<32 | uint64(uint32(p.Output))
		if p.Seq != next[pair] {
			t.Fatalf("pair %d: seq %d want %d", pair, p.Seq, next[pair])
		}
		next[pair]++
	}
}

func TestMuxWindow(t *testing.T) {
	rng := sim.NewRNG(3)
	srcs := UniformSources(Uniform(2, 0.5), 100*sim.Gbps, Poisson, Fixed(1500), rng)
	pkts := NewMux(srcs).Window(10 * sim.Microsecond)
	if len(pkts) == 0 {
		t.Fatal("empty window")
	}
	for _, p := range pkts {
		if p.Arrival > 10*sim.Microsecond {
			t.Fatal("packet beyond horizon")
		}
	}
}

func TestWavelengthSourcesAggregateLoad(t *testing.T) {
	// 64 channels of 40 Gb/s at load 0.8 must aggregate to 0.8 of
	// 2.56 Tb/s per input.
	rng := sim.NewRNG(4)
	m := Uniform(4, 0.8)
	srcs := WavelengthSources(m, 64, 40*sim.Gbps, Poisson, Fixed(1500), rng)
	if len(srcs) != 4*64 {
		t.Fatalf("%d sources", len(srcs))
	}
	mux := NewMux(srcs)
	horizon := 50 * sim.Microsecond
	bits := make([]int64, 4)
	for {
		p, at := mux.Next()
		if p == nil || at > horizon {
			break
		}
		bits[p.Input] += int64(p.Size) * 8
	}
	for i, b := range bits {
		got := float64(b) / (2.56e12 * horizon.Seconds())
		if math.Abs(got-0.8) > 0.05 {
			t.Errorf("input %d aggregate load %.3f want ~0.8", i, got)
		}
	}
}

func TestWavelengthSourcesSeqOrderedAcrossChannels(t *testing.T) {
	// Sub-sources of one input interleave arbitrarily; the mux's
	// arrival-order sequence numbering must stay consecutive per
	// (input, output) pair.
	rng := sim.NewRNG(5)
	srcs := WavelengthSources(Uniform(2, 0.9), 8, 40*sim.Gbps, Poisson, IMIX(), rng)
	mux := NewMux(srcs)
	next := map[uint64]int64{}
	prev := sim.Time(-1)
	for i := 0; i < 20000; i++ {
		p, at := mux.Next()
		if at < prev {
			t.Fatal("arrival order broken")
		}
		prev = at
		pair := uint64(p.Input)<<32 | uint64(uint32(p.Output))
		if p.Seq != next[pair] {
			t.Fatalf("seq %d want %d", p.Seq, next[pair])
		}
		next[pair]++
	}
}

// scanMux is the reference merge Mux's heap must reproduce packet for
// packet: a linear scan in which the lowest arrival time wins, and
// among equal times the lowest source index.
type scanMux struct {
	srcs []*Source
	head []*packet.Packet
	at   []sim.Time
	seq  []int64
	nOut int
}

func newScanMux(srcs []*Source) *scanMux {
	m := &scanMux{srcs: srcs, head: make([]*packet.Packet, len(srcs)), at: make([]sim.Time, len(srcs))}
	nIn := 0
	for _, s := range srcs {
		nIn = max(nIn, s.Input+1)
		m.nOut = max(m.nOut, len(s.weights))
	}
	m.seq = make([]int64, nIn*m.nOut)
	for i, s := range srcs {
		m.head[i], m.at[i] = s.Next()
	}
	return m
}

func (m *scanMux) Next() (*packet.Packet, sim.Time) {
	best := -1
	bestAt := sim.Forever
	for i, p := range m.head {
		if p != nil && m.at[i] < bestAt {
			best = i
			bestAt = m.at[i]
		}
	}
	if best < 0 {
		return nil, sim.Forever
	}
	p, at := m.head[best], m.at[best]
	m.head[best], m.at[best] = m.srcs[best].Next()
	pair := p.Pair(m.nOut)
	p.Seq = m.seq[pair]
	m.seq[pair]++
	return p, at
}

// muxRecord is what the differential test compares of each packet.
type muxRecord struct {
	ID            uint64
	Arrival, At   sim.Time
	Input, Output int
	Seq           int64
	Flow          packet.FiveTuple
	Size          int
}

func drainRecords(next func() (*packet.Packet, sim.Time), n int) []muxRecord {
	var out []muxRecord
	for len(out) < n {
		p, at := next()
		if p == nil {
			break
		}
		out = append(out, muxRecord{p.ID, p.Arrival, at, int(p.Input), int(p.Output), p.Seq, p.Flow, int(p.Size)})
	}
	return out
}

// equalArrivalSources builds n sources at full load with one fixed
// size and line rate, so every source's k-th packet arrives at the
// same instant and each merge step is an n-way tie.
func equalArrivalSources(n int, seed uint64) []*Source {
	rng := sim.NewRNG(seed)
	pool := NewFlowPool(4, rng.Fork())
	var id uint64
	nextID := func() uint64 { id++; return id }
	row := make([]float64, n)
	for j := range row {
		row[j] = 1 / float64(n)
	}
	srcs := make([]*Source, n)
	for i := range srcs {
		srcs[i] = NewSource(SourceConfig{Input: i, LineRate: 100 * sim.Gbps, Kind: Poisson,
			Row: row, Sizes: Fixed(64), RNG: rng.Fork(), Pool: pool, NextID: nextID})
	}
	return srcs
}

// The heap merge must emit exactly the stream of the linear scan it
// replaced: same packets, same order, same re-assigned sequence
// numbers and the same flow tuples.
func TestMuxMatchesLinearScan(t *testing.T) {
	withIdle := func(n int, load float64, idle ...int) *Matrix {
		m := Uniform(n, load)
		for _, i := range idle {
			for j := range m.Rates[i] {
				m.Rates[i][j] = 0
			}
		}
		return m
	}
	cases := []struct {
		name string
		srcs func() []*Source
	}{
		{"poisson-64B", func() []*Source {
			return UniformSources(Uniform(8, 0.9), 100*sim.Gbps, Poisson, Fixed(64), sim.NewRNG(1))
		}},
		{"poisson-imix", func() []*Source {
			return UniformSources(Uniform(8, 0.9), 100*sim.Gbps, Poisson, IMIX(), sim.NewRNG(2))
		}},
		{"bursty-64B", func() []*Source {
			return UniformSources(Uniform(8, 0.9), 100*sim.Gbps, Bursty, Fixed(64), sim.NewRNG(3))
		}},
		{"bursty-imix", func() []*Source {
			return UniformSources(Uniform(8, 0.7), 100*sim.Gbps, Bursty, IMIX(), sim.NewRNG(4))
		}},
		{"wavelength-8ch", func() []*Source {
			return WavelengthSources(Uniform(4, 0.9), 8, 40*sim.Gbps, Poisson, IMIX(), sim.NewRNG(5))
		}},
		{"idle-rows", func() []*Source {
			return UniformSources(withIdle(6, 0.8, 0, 3, 5), 100*sim.Gbps, Poisson, IMIX(), sim.NewRNG(6))
		}},
		{"equal-arrivals", func() []*Source { return equalArrivalSources(7, 7) }},
		{"all-idle", func() []*Source {
			return UniformSources(withIdle(3, 0.5, 0, 1, 2), 100*sim.Gbps, Poisson, Fixed(64), sim.NewRNG(8))
		}},
		{"no-sources", func() []*Source { return nil }},
	}
	const n = 20000
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := drainRecords(newScanMux(c.srcs()).Next, n)
			mux := NewMux(c.srcs())
			got := drainRecords(mux.Next, n)
			if len(got) != len(want) {
				t.Fatalf("heap merge emitted %d packets, scan %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("packet %d: heap %+v, scan %+v", i, got[i], want[i])
				}
			}
			if len(want) < n {
				if p, at := mux.Next(); p != nil || at != sim.Forever {
					t.Fatalf("drained mux returned %v at %v, want nil at Forever", p, at)
				}
			}
		})
	}
}

// With every source tied at every instant the merge must walk the
// inputs in index order.
func TestMuxBreaksTiesBySourceIndex(t *testing.T) {
	const srcs = 5
	mux := NewMux(equalArrivalSources(srcs, 9))
	for i := 0; i < 100*srcs; i++ {
		p, at := mux.Next()
		if int(p.Input) != i%srcs {
			t.Fatalf("packet %d at %v from input %d, want %d", i, at, p.Input, i%srcs)
		}
	}
}

// muxLoop pulls one packet and hands it back to the sources' pool,
// the way the hbmswitch run loop consumes a Mux.
func muxLoop(m *Mux) {
	p, _ := m.Next()
	m.Recycle(p)
}

// Over pooled, recycled sources the merge, the sources and their
// cached flow tables allocate nothing per packet.
func TestMuxNextZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name string
		srcs []*Source
	}{
		{"16src", UniformSources(Uniform(16, 0.9), 100*sim.Gbps, Poisson, Fixed(64), sim.NewRNG(1))},
		{"16x8wavelength", WavelengthSources(Uniform(16, 0.9), 8, 40*sim.Gbps, Poisson, IMIX(), sim.NewRNG(2))},
	} {
		mux := NewMux(c.srcs)
		for i := 0; i < 20000; i++ { // create every pair's flow table
			muxLoop(mux)
		}
		if allocs := testing.AllocsPerRun(10000, func() { muxLoop(mux) }); allocs != 0 {
			t.Errorf("%s: %v allocs per Mux.Next, want 0", c.name, allocs)
		}
	}
}

func BenchmarkMuxNext(b *testing.B) {
	for _, c := range []struct {
		name string
		srcs func() []*Source
	}{
		{"16src", func() []*Source {
			return UniformSources(Uniform(16, 0.9), 100*sim.Gbps, Poisson, Fixed(64), sim.NewRNG(1))
		}},
		{"16x8wavelength", func() []*Source {
			return WavelengthSources(Uniform(16, 0.9), 8, 40*sim.Gbps, Poisson, Fixed(64), sim.NewRNG(1))
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			mux := NewMux(c.srcs())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				muxLoop(mux)
			}
		})
	}
}
