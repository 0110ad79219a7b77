package baseline

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"pbrouter/internal/hbm"
	"pbrouter/internal/packet"
	"pbrouter/internal/parallel"
	"pbrouter/internal/sim"
	"pbrouter/internal/stats"
	"pbrouter/internal/traffic"
	"pbrouter/internal/workload"
)

// sortResequencer is the reference the streaming resequencer must
// reproduce: it holds every completion and, at Finish, stable-sorts
// them by time and replays them through a reorder tracker.
type sortResequencer struct {
	inflight  []sortEntry
	Tracker   *stats.ReorderTracker
	Delivered stats.Counter
}

type sortEntry struct {
	done sim.Time
	p    *packet.Packet
}

func (r *sortResequencer) complete(p *packet.Packet, done sim.Time) {
	r.inflight = append(r.inflight, sortEntry{done, p})
}

func (r *sortResequencer) Finish() sim.Rate {
	if len(r.inflight) == 0 {
		return 0
	}
	sort.SliceStable(r.inflight, func(i, j int) bool {
		return r.inflight[i].done < r.inflight[j].done
	})
	for _, e := range r.inflight {
		pair := uint64(e.p.Input)<<32 | uint64(uint32(e.p.Output))
		r.Tracker.Observe(pair, e.p.Seq, int(e.p.Size))
		r.Delivered.Add(e.p.Size)
	}
	return sim.RateOf(r.Delivered.Bits(), r.inflight[len(r.inflight)-1].done)
}

// reseqDesign builds one resequencing design twice from the same
// seed: the switch under test, and a twin whose departure times feed
// the reference.
type reseqDesign struct {
	name  string
	build func(n int) (arrive, depart func(*packet.Packet) sim.Time, r *resequencer)
}

func reseqDesigns(seed uint64) []reseqDesign {
	return []reseqDesign{
		{"spray", func(int) (arrive, depart func(*packet.Packet) sim.Time, r *resequencer) {
			geo, tim := hbm.HBM4Geometry(1), hbm.HBM4Timing()
			sw := NewSpraySwitch(geo, tim, sim.NewRNG(seed))
			return sw.Arrive, NewSpraySwitch(geo, tim, sim.NewRNG(seed)).depart, &sw.resequencer
		}},
		{"pps", func(n int) (arrive, depart func(*packet.Packet) sim.Time, r *resequencer) {
			sw := NewPPS(n, 4, 200*sim.Gbps, 1.1)
			return sw.Arrive, NewPPS(n, 4, 200*sim.Gbps, 1.1).depart, &sw.resequencer
		}},
	}
}

// checkAgainstSort feeds pkts through the design and through the
// stable-sort reference and requires identical results.
func checkAgainstSort(t *testing.T, d reseqDesign, n int, pkts []*packet.Packet) {
	t.Helper()
	arrive, depart, r := d.build(n)
	ref := &sortResequencer{Tracker: stats.NewReorderTracker()}
	for i, p := range pkts {
		got, want := arrive(p), depart(p)
		if got != want {
			t.Fatalf("packet %d: completion %v, reference %v", i, got, want)
		}
		ref.complete(p, want)
	}
	if got, want := r.Finish(), ref.Finish(); got != want {
		t.Fatalf("Finish rate %v, reference %v", got, want)
	}
	if r.Delivered != ref.Delivered {
		t.Fatalf("delivered %+v, reference %+v", r.Delivered, ref.Delivered)
	}
	type counters struct{ total, ooo, peak, held, disp int64 }
	of := func(tr *stats.ReorderTracker) counters {
		return counters{tr.Total(), tr.OutOfOrder(), tr.PeakBufferBytes(), tr.HeldBytes(), tr.MaxDisplacement()}
	}
	if got, want := of(r.Tracker), of(ref.Tracker); got != want {
		t.Fatalf("tracker %+v, reference %+v", got, want)
	}
	if r.Tracker.Total() != int64(len(pkts)) {
		t.Fatalf("tracker saw %d of %d packets", r.Tracker.Total(), len(pkts))
	}
}

// arenaColumn builds arena workload column w for n ports at the given
// rate the way internal/arch seeds it (seed 1, load 0.9), up to the
// horizon.
func arenaColumn(t testing.TB, w int, n int, rate sim.Rate, horizon sim.Time) []*packet.Packet {
	t.Helper()
	kind := workload.Kinds()[w]
	m := traffic.Uniform(n, 0.9)
	rng := sim.NewRNG(parallel.Seed(1, w))
	cfg := workload.Config{Kind: kind, TailAlpha: 1.3, BurstRatio: 4}
	if kind == workload.KindReplay {
		cfg.Kind = workload.KindHeavyTail
	}
	s, err := workload.New(cfg, m, rate, rng)
	if err != nil {
		t.Fatal(err)
	}
	if kind == workload.KindReplay {
		recs := workload.Capture(s, horizon)
		s = workload.NewReplay(recs, workload.LoadScale(recs, rate, 0.9))
	}
	var pkts []*packet.Packet
	for {
		p, at := s.Next()
		if p == nil || at > horizon {
			return pkts
		}
		pkts = append(pkts, p)
	}
}

// backlogFeed is router/exp_baselines.go's spraying-switch input: a
// backlog of 64 B packets, all arriving at 0, round-robin over 16
// outputs.
func backlogFeed(n int) []*packet.Packet {
	seqs := map[int]int64{}
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		out := i % 16
		pkts[i] = &packet.Packet{ID: uint64(i), Size: 64, Output: int32(out), Seq: seqs[out]}
		seqs[out]++
	}
	return pkts
}

// tiedFeed is hand-built so that completions tie, within a pair and
// across pairs: at each step every input sends a burst of equal-size
// packets to one rotating output, all inputs at the same instant, so
// the burst's packets leave parallel channels or planes together. The
// size changes between steps so that packets also overtake each other.
func tiedFeed(n, steps int) []*packet.Packet {
	var pkts []*packet.Packet
	seqs := map[[2]int]int64{}
	for k := 0; k < steps; k++ {
		size := []int{64, 1500, 64, 594}[k%4]
		for in := 0; in < n; in++ {
			out := (in + k) % n
			key := [2]int{in, out}
			for b := 0; b < 3; b++ {
				pkts = append(pkts, &packet.Packet{ID: uint64(len(pkts)), Size: int32(size), Input: int32(in), Output: int32(out),
					Arrival: sim.Time(k/2) * 40 * sim.Nanosecond, Seq: seqs[key]})
				seqs[key]++
			}
		}
	}
	return pkts
}

// The streaming resequencer must release completions in exactly the
// order the append-then-stable-sort replay did, so every reported
// number stays the same.
func TestResequencerMatchesStableSort(t *testing.T) {
	const n = 4
	for _, d := range reseqDesigns(0x5954a7) {
		for w, kind := range workload.Kinds() {
			t.Run(d.name+"/"+kind, func(t *testing.T) {
				checkAgainstSort(t, d, n, arenaColumn(t, w, n, 200*sim.Gbps, 10*sim.Microsecond))
			})
		}
		t.Run(d.name+"/backlog", func(t *testing.T) { checkAgainstSort(t, d, 16, backlogFeed(4000)) })
		t.Run(d.name+"/ties", func(t *testing.T) {
			pkts := tiedFeed(n, 400)
			arrive, _, _ := d.build(n)
			type tie struct {
				done sim.Time
				pair uint64
			}
			seen := map[tie]bool{}
			pairsAt := map[sim.Time]uint64{}
			var inPair, acrossPairs bool
			for _, p := range pkts {
				k := tie{arrive(p), uint64(p.Input)<<32 | uint64(p.Output)}
				inPair = inPair || seen[k]
				if prev, ok := pairsAt[k.done]; ok && prev != k.pair {
					acrossPairs = true
				}
				seen[k], pairsAt[k.done] = true, k.pair
			}
			if !inPair || !acrossPairs {
				t.Fatalf("feed ties within a pair: %v, across pairs: %v; want both", inPair, acrossPairs)
			}
			checkAgainstSort(t, d, n, pkts)
		})
	}
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("panic %q does not mention %q", r, want)
		}
	}()
	f()
}

// The release order is only a stable sort when arrivals never go back
// in time and nothing completes before it arrives; both are checked.
func TestResequencerRejectsBrokenOrder(t *testing.T) {
	for _, d := range reseqDesigns(1) {
		arrive, _, _ := d.build(2)
		arrive(&packet.Packet{Size: 64, Arrival: 1000})
		mustPanic(t, "nondecreasing arrivals", func() { arrive(&packet.Packet{Size: 64, Arrival: 999}) })
	}
	r := newResequencer()
	mustPanic(t, "completion before its own arrival", func() {
		r.complete(&packet.Packet{Size: 64, Arrival: 1000}, 999)
	})
}

// BenchmarkResequencer drives spray and PPS, resequencer included,
// over the default arena's uniform column: N=16 at 256 Gb/s for 40 µs,
// about 51 k packets.
func BenchmarkResequencer(b *testing.B) {
	const n = 16
	pkts := arenaColumn(b, 0, n, 256*sim.Gbps, 40*sim.Microsecond)
	designs := map[string]func() (func(*packet.Packet) sim.Time, func() sim.Rate){
		"spray": func() (func(*packet.Packet) sim.Time, func() sim.Rate) {
			sw := NewSpraySwitch(hbm.HBM4Geometry(1), hbm.HBM4Timing(), sim.NewRNG(1))
			return sw.Arrive, sw.Finish
		},
		"pps": func() (func(*packet.Packet) sim.Time, func() sim.Rate) {
			sw := NewPPS(n, 4, 256*sim.Gbps, 1.1)
			return sw.Arrive, sw.Finish
		},
	}
	for _, name := range []string{"spray", "pps"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arrive, finish := designs[name]()
				for _, p := range pkts {
					arrive(p)
				}
				benchRate = finish()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pkts)), "ns/pkt")
		})
	}
}

var benchRate sim.Rate
