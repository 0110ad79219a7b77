package workload

import (
	"testing"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
)

// scanMerge is the reference Merged's heap must reproduce packet for
// packet: a linear scan in which the lowest arrival time wins, and
// among equal times the lowest stream index, with sequence numbers
// kept in a map.
type scanMerge struct {
	streams []traffic.Stream
	head    []*packet.Packet
	at      []sim.Time
	primed  bool
	seqs    map[uint64]int64
}

func newScanMerge(streams []traffic.Stream) *scanMerge {
	return &scanMerge{
		streams: streams,
		head:    make([]*packet.Packet, len(streams)),
		at:      make([]sim.Time, len(streams)),
		seqs:    make(map[uint64]int64),
	}
}

func (g *scanMerge) Next() (*packet.Packet, sim.Time) {
	if !g.primed {
		for i, s := range g.streams {
			g.head[i], g.at[i] = s.Next()
		}
		g.primed = true
	}
	best := -1
	for i, p := range g.head {
		if p == nil {
			continue
		}
		if best < 0 || g.at[i] < g.at[best] {
			best = i
		}
	}
	if best < 0 {
		return nil, 0
	}
	p, at := g.head[best], g.at[best]
	g.head[best], g.at[best] = g.streams[best].Next()
	key := uint64(uint32(p.Input))<<32 | uint64(uint32(p.Output))
	p.Seq = g.seqs[key]
	g.seqs[key]++
	return p, at
}

// limited ends its stream after n packets.
type limited struct {
	s traffic.Stream
	n int
}

func (l *limited) Next() (*packet.Packet, sim.Time) {
	if l.n == 0 {
		return nil, 0
	}
	l.n--
	return l.s.Next()
}

// ticker emits one 64 B packet every step, rotating over n outputs,
// so that streams sharing a step tie at every instant.
type ticker struct {
	input, n, k int
	step        sim.Time
	nextID      func() uint64
}

func (s *ticker) Next() (*packet.Packet, sim.Time) {
	at := sim.Time(s.k) * s.step
	out := s.k % s.n
	s.k++
	return &packet.Packet{ID: s.nextID(), Size: 64, Input: int32(s.input), Output: int32(out), Arrival: at,
		Flow: onOffTuple(s.input, out)}, at
}

type mergeRecord struct {
	ID            uint64
	Arrival, At   sim.Time
	Input, Output int
	Seq           int64
	Flow          packet.FiveTuple
	Size          int
}

func drainMerge(s traffic.Stream, n int) []mergeRecord {
	var out []mergeRecord
	for len(out) < n {
		p, at := s.Next()
		if p == nil {
			break
		}
		out = append(out, mergeRecord{p.ID, p.Arrival, at, int(p.Input), int(p.Output), p.Seq, p.Flow, int(p.Size)})
	}
	return out
}

// The heap merge must emit exactly the stream of the linear scan it
// replaced: same packets and IDs, same order, same sequence numbers.
func TestMergedMatchesLinearScan(t *testing.T) {
	generator := func(kind string, seed uint64, endAfter func(i int) int) func() []traffic.Stream {
		return func() []traffic.Stream {
			cfg := Config{Kind: kind}
			cfg.Normalize()
			ss := inputStreams(cfg, traffic.Uniform(8, 0.8), testRate, sim.NewRNG(seed))
			if endAfter != nil {
				for i, s := range ss {
					ss[i] = &limited{s, endAfter(i)}
				}
			}
			return ss
		}
	}
	ticking := func(n int) func() []traffic.Stream {
		return func() []traffic.Stream {
			var id uint64
			nextID := func() uint64 { id++; return id }
			ss := make([]traffic.Stream, n)
			for i := range ss {
				ss[i] = &ticker{input: i, n: n, step: 5 * sim.Nanosecond, nextID: nextID}
			}
			return ss
		}
	}
	cases := []struct {
		name    string
		streams func() []traffic.Stream
	}{
		{"heavytail", generator(KindHeavyTail, 1, nil)},
		{"onoff", generator(KindOnOff, 2, nil)},
		{"heavytail-ending", generator(KindHeavyTail, 3, func(i int) int { return 700 * i })},
		{"onoff-ending", generator(KindOnOff, 4, func(i int) int { return 300 * (7 - i) })},
		{"ties", ticking(6)},
		{"ties-ending", func() []traffic.Stream {
			ss := ticking(5)()
			for i, s := range ss {
				ss[i] = &limited{s, 100 * (i % 3)}
			}
			return ss
		}},
		{"no-streams", func() []traffic.Stream { return nil }},
	}
	const n = 20000
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := drainMerge(newScanMerge(c.streams()), n)
			g := Merge(c.streams()...)
			got := drainMerge(g, n)
			if len(got) != len(want) {
				t.Fatalf("heap merge emitted %d packets, scan %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("packet %d: heap %+v, scan %+v", i, got[i], want[i])
				}
			}
			if len(want) < n {
				if p, at := g.Next(); p != nil || at != 0 {
					t.Fatalf("drained merge returned %v at %v, want nil at 0", p, at)
				}
			}
		})
	}
}

// BenchmarkMergedNext pulls packets from the default arena's
// heavytail and onoff columns: 16 inputs at 256 Gb/s and load 0.9.
func BenchmarkMergedNext(b *testing.B) {
	for _, kind := range []string{KindHeavyTail, KindOnOff} {
		b.Run(kind, func(b *testing.B) {
			s, err := New(Config{Kind: kind}, traffic.Uniform(16, 0.9), 256*sim.Gbps, sim.NewRNG(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPacket, _ = s.Next()
			}
		})
	}
}

var benchPacket *packet.Packet
