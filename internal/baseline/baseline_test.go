package baseline

import (
	"math"
	"testing"

	"pbrouter/internal/hbm"
	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
)

func TestOQSwitchWorkConservation(t *testing.T) {
	// Two packets to the same output back to back: the second departs
	// exactly one transmission time after the first.
	s := NewOQSwitch(4, sim.Tbps)
	p1 := &packet.Packet{ID: 1, Size: 1000, Output: 0, Arrival: 0}
	p2 := &packet.Packet{ID: 2, Size: 1000, Output: 0, Arrival: 0}
	d1 := s.Arrive(p1)
	d2 := s.Arrive(p2)
	tx := sim.TransferTime(8000, sim.Tbps)
	if d1 != tx {
		t.Fatalf("d1 %v want %v", d1, tx)
	}
	if d2 != 2*tx {
		t.Fatalf("d2 %v want %v", d2, 2*tx)
	}
	// An idle output serves immediately.
	p3 := &packet.Packet{ID: 3, Size: 1000, Output: 1, Arrival: 100000}
	if d3 := s.Arrive(p3); d3 != 100000+tx {
		t.Fatalf("d3 %v", d3)
	}
}

func TestOQSwitchOutputsIndependent(t *testing.T) {
	s := NewOQSwitch(2, sim.Tbps)
	for i := 0; i < 10; i++ {
		s.Arrive(&packet.Packet{ID: uint64(i), Size: 1500, Output: 0, Arrival: 0})
	}
	// Output 1 unaffected by output 0's backlog.
	d := s.Arrive(&packet.Packet{ID: 99, Size: 64, Output: 1, Arrival: 0})
	if d != sim.TransferTime(64*8, sim.Tbps) {
		t.Fatalf("output 1 delayed: %v", d)
	}
	if s.MaxHighWater() == 0 {
		t.Fatal("no backlog recorded on output 0")
	}
}

func TestOQSwitchThroughputAtFullLoad(t *testing.T) {
	// Feed an admissible uniform load-1.0 pattern; the ideal switch
	// delivers 100%.
	const n = 4
	rate := 100 * sim.Gbps
	s := NewOQSwitch(n, rate)
	rng := sim.NewRNG(1)
	srcs := traffic.UniformSources(traffic.Uniform(n, 1.0), rate, traffic.Poisson, traffic.Fixed(1500), rng)
	horizon := sim.Millisecond
	var last sim.Time
	for _, p := range traffic.NewMux(srcs).Window(horizon) {
		if d := s.Arrive(p); d > last {
			last = d
		}
	}
	delivered := s.Delivered.Rate(0, last)
	offered := 4.0 * float64(rate) // ~load 1.0 on each of 4 ports
	if got := float64(delivered) / offered; got < 0.95 {
		t.Fatalf("ideal switch delivered only %.3f of offered", got)
	}
}

func TestSpraySwitchLosesThroughputOnSmallPackets(t *testing.T) {
	// Backlogged 64 B packets through the spraying switch: worst-case
	// random access throttles throughput by tens of x (§3.1).
	geo, tim := hbm.HBM4Geometry(1), hbm.HBM4Timing()
	rng := sim.NewRNG(3)
	s := NewSpraySwitch(geo, tim, rng)
	seqs := map[int]int64{}
	const n = 20000
	for i := 0; i < n; i++ {
		out := i % 4
		p := &packet.Packet{ID: uint64(i), Size: 64, Input: 0, Output: int32(out),
			Arrival: 0, Seq: seqs[out]}
		seqs[out]++
		s.Arrive(p)
	}
	achieved := s.Finish()
	factor := float64(geo.PeakRate()) / float64(achieved)
	if factor < 30 {
		t.Fatalf("spray 64B reduction factor %.1f want >30", factor)
	}
}

func TestSpraySwitchReordersAndNeedsBuffer(t *testing.T) {
	// Packets of alternating sizes sprayed across channels overtake
	// each other; the resequencer must buffer.
	geo, tim := hbm.HBM4Geometry(1), hbm.HBM4Timing()
	rng := sim.NewRNG(4)
	s := NewSpraySwitch(geo, tim, rng)
	var seq int64
	for i := 0; i < 5000; i++ {
		size := 64
		if i%2 == 0 {
			size = 1500
		}
		p := &packet.Packet{ID: uint64(i), Size: int32(size), Input: 0, Output: 0,
			Arrival: 0, Seq: seq}
		seq++
		s.Arrive(p)
	}
	s.Finish()
	if s.Tracker.OutOfOrder() == 0 {
		t.Fatal("spraying produced no reordering")
	}
	if s.PeakReorderBufferBytes() == 0 {
		t.Fatal("no reorder buffer needed?")
	}
}

func TestMeshGuaranteedCapacity10x10Is20Percent(t *testing.T) {
	// §2.1 Challenge 2: "in a 10×10 mesh, the guaranteed capacity is
	// at most 20% of the total capacity".
	m, err := NewMesh(10)
	if err != nil {
		t.Fatal(err)
	}
	got := m.GuaranteedCapacity()
	if math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("guaranteed capacity %.4f want 0.2", got)
	}
	if math.Abs(GuaranteedCapacityBound(10)-0.2) > 1e-12 {
		t.Fatal("analytic bound mismatch")
	}
}

func TestMeshGuaranteedCapacityScalesAs2OverK(t *testing.T) {
	for _, k := range []int{4, 8, 16} {
		m, _ := NewMesh(k)
		got := m.GuaranteedCapacity()
		want := 2 / float64(k)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("k=%d: guaranteed %.4f want %.4f", k, got, want)
		}
	}
}

func TestMeshUniformTrafficBetterThanWorstCase(t *testing.T) {
	m, _ := NewMesh(8)
	uni := traffic.Uniform(64, 1.0)
	tu := m.Throughput(uni)
	tw := m.GuaranteedCapacity()
	if tu <= tw {
		t.Fatalf("uniform throughput %.3f not better than worst case %.3f", tu, tw)
	}
}

func TestMeshWorstCaseMatrixAdmissible(t *testing.T) {
	m, _ := NewMesh(10)
	tm := m.WorstCaseMatrix()
	if !tm.Admissible(1e-9) {
		t.Fatal("worst-case matrix inadmissible — the bound would be vacuous")
	}
}

func TestMeshAverageHopsGrowWithK(t *testing.T) {
	// §2.1 Challenge 2: pass-through hops waste capacity and power;
	// they grow with the mesh side while SPS stays at one stage.
	var prev float64
	for _, k := range []int{4, 8, 12} {
		m, _ := NewMesh(k)
		hops := m.InternalTrafficFactor(traffic.Uniform(k*k, 1.0))
		if hops <= prev {
			t.Fatalf("k=%d: hops %.2f did not grow (prev %.2f)", k, hops, prev)
		}
		// Uniform XY average hop count is ~2k/3.
		want := 2 * float64(k) / 3
		if math.Abs(hops-want)/want > 0.2 {
			t.Fatalf("k=%d: hops %.2f want ~%.2f", k, hops, want)
		}
		prev = hops
	}
}

func TestMeshRejectsTinySide(t *testing.T) {
	if _, err := NewMesh(1); err == nil {
		t.Fatal("1x1 mesh accepted")
	}
}

func TestPPSDeliversButReorders(t *testing.T) {
	// A PPS at speedup 1.0 keeps up with admissible traffic in
	// aggregate but reorders packets, requiring output resequencing
	// (§2.1 Challenge 3).
	const n, h = 4, 4
	rate := 100 * sim.Gbps
	pps := NewPPS(n, h, rate, 1.0)
	var id uint64
	seqs := map[[2]int]int64{}
	// Bursts of same-(input,output) packets with varied sizes so
	// middle planes drift apart.
	var last sim.Time
	var t0 sim.Time
	for b := 0; b < 2000; b++ {
		in := b % n
		out := (b / n) % n
		for j := 0; j < 3; j++ {
			size := []int{64, 1500, 594}[j]
			key := [2]int{in, out}
			p := &packet.Packet{ID: id, Size: int32(size), Input: int32(in), Output: int32(out),
				Arrival: t0, Seq: seqs[key]}
			id++
			seqs[key]++
			if d := pps.Arrive(p); d > last {
				last = d
			}
		}
		t0 += 120 * sim.Nanosecond
	}
	pps.Finish()
	if pps.Tracker.OutOfOrder() == 0 {
		t.Fatal("PPS produced no reordering — resequencer would be free")
	}
	if pps.PeakReorderBufferBytes() == 0 {
		t.Fatal("PPS needed no reorder buffer")
	}
	if OEOStages != 3 {
		t.Fatal("three-stage architecture must cost 3 OEO stages")
	}
}

func TestPPSRoundRobinSpreads(t *testing.T) {
	pps := NewPPS(2, 4, sim.Tbps, 1.0)
	// 8 packets from input 0: exactly 2 per middle switch.
	for i := 0; i < 8; i++ {
		pps.Arrive(&packet.Packet{ID: uint64(i), Size: 1000, Input: 0, Output: 0,
			Arrival: 0, Seq: int64(i)})
	}
	for m, mid := range pps.middles {
		if mid.Delivered.Packets != 2 {
			t.Fatalf("middle %d got %d packets want 2", m, mid.Delivered.Packets)
		}
	}
}
