package hbmswitch

import (
	"fmt"
	"math"
	"testing"

	"pbrouter/internal/core"
	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
)

// run builds a reference switch with the given tweaks and runs the
// matrix for the horizon.
func run(t *testing.T, mutate func(*Config), m *traffic.Matrix, kind traffic.ArrivalKind,
	sizes traffic.SizeDist, horizon sim.Time, seed uint64) *Report {
	t.Helper()
	cfg := Reference()
	cfg.Speedup = 1.1 // absorb W/R transitions in functional tests
	if mutate != nil {
		mutate(&cfg)
	}
	sw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed)
	srcs := traffic.UniformSources(m, cfg.PortRate, kind, sizes, rng)
	rep, err := sw.Run(traffic.NewMux(srcs), horizon)
	if err != nil {
		t.Fatalf("run error: %v (report: %v)", err, rep)
	}
	if len(rep.Errors) > 0 {
		t.Fatalf("invariant violations: %v", rep.Errors)
	}
	return rep
}

func TestConfigValidate(t *testing.T) {
	cfg := Reference()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Reference()
	bad.PortRate = 0
	if bad.Validate() == nil {
		t.Fatal("zero port rate accepted")
	}
	// A switch whose HBM cannot carry 2x the aggregate rate is
	// rejected (Challenge 5 arithmetic).
	weak := Reference()
	weak.PortRate = 5120 * sim.Gbps // doubles the load, same memory
	if weak.Validate() == nil {
		t.Fatal("underprovisioned HBM accepted")
	}
	mis := Reference()
	mis.PFI.Channels = 64
	if mis.Validate() == nil {
		t.Fatal("channel mismatch accepted")
	}
}

func TestReferenceConfigConsistency(t *testing.T) {
	cfg := Reference()
	// Aggregate I/O of one switch: 2·N·P = 81.92 Tb/s = HBM peak.
	agg := 2 * float64(cfg.PortRate) * float64(cfg.PFI.N)
	if math.Abs(agg-81.92e12) > 1 {
		t.Fatalf("aggregate %v want 81.92Tb/s", agg)
	}
	if got := float64(cfg.Geometry.PeakRate()); math.Abs(got-agg) > 1 {
		t.Fatalf("HBM peak %v != aggregate need %v", got, agg)
	}
	if cfg.BatchTime() != 12800 {
		t.Fatalf("batch time %v want 12.8ns", cfg.BatchTime())
	}
}

func TestUniformModerateLoadDeliversEverything(t *testing.T) {
	m := traffic.Uniform(16, 0.7)
	rep := run(t, nil, m, traffic.Poisson, traffic.Fixed(1500), 20*sim.Microsecond, 1)
	if rep.DeliveredPackets == 0 {
		t.Fatal("nothing delivered")
	}
	if math.Abs(rep.Throughput-rep.OfferedLoad) > 0.02 {
		t.Fatalf("throughput %.4f vs offered %.4f", rep.Throughput, rep.OfferedLoad)
	}
}

func TestHighLoadThroughput(t *testing.T) {
	// §3.2 (6): 100% throughput under admissible traffic. Offered load
	// 0.98 with IMIX sizes must be delivered in full.
	m := traffic.Uniform(16, 0.98)
	rep := run(t, nil, m, traffic.Poisson, traffic.IMIX(), 20*sim.Microsecond, 2)
	if rep.Throughput < rep.OfferedLoad-0.02 {
		t.Fatalf("throughput %.4f below offered %.4f", rep.Throughput, rep.OfferedLoad)
	}
}

func TestHighLoadThroughputPureHBMPath(t *testing.T) {
	// Same claim with padding and bypass disabled: every byte is
	// store-and-forwarded through the HBM, exercising PFI's
	// peak-data-rate writes and cyclical reads at ~full load.
	m := traffic.Uniform(16, 0.95)
	rep := run(t, func(c *Config) {
		c.Policy = core.Policy{}
	}, m, traffic.Poisson, traffic.Fixed(1500), 30*sim.Microsecond, 2)
	if rep.Throughput < rep.OfferedLoad-0.02 {
		t.Fatalf("throughput %.4f below offered %.4f", rep.Throughput, rep.OfferedLoad)
	}
	if rep.FramesWritten == 0 || rep.FramesRead != rep.FramesWritten {
		t.Fatalf("HBM path not exercised: W=%d R=%d", rep.FramesWritten, rep.FramesRead)
	}
	if rep.FramesBypassed != 0 {
		t.Fatalf("bypass used despite disabled policy: %d", rep.FramesBypassed)
	}
	if rep.HBMUtilization < 0.5 {
		t.Fatalf("HBM utilization %.3f too low for a store-and-forward run", rep.HBMUtilization)
	}
}

func TestDiagonalTraffic(t *testing.T) {
	// A permutation matrix leaves no statistical multiplexing; PFI
	// must still deliver it (frames fill from a single input).
	m := traffic.Diagonal(16, 0.9, 5)
	rep := run(t, nil, m, traffic.Poisson, traffic.Fixed(1500), 20*sim.Microsecond, 3)
	if rep.Throughput < rep.OfferedLoad-0.02 {
		t.Fatalf("throughput %.4f below offered %.4f", rep.Throughput, rep.OfferedLoad)
	}
}

func TestHotspotTraffic(t *testing.T) {
	m := traffic.Hotspot(16, 0.9, 0.05)
	rep := run(t, nil, m, traffic.Poisson, traffic.IMIX(), 20*sim.Microsecond, 4)
	if rep.Throughput < rep.OfferedLoad-0.02 {
		t.Fatalf("throughput %.4f below offered %.4f", rep.Throughput, rep.OfferedLoad)
	}
}

func TestBurstyTrafficSurvives(t *testing.T) {
	m := traffic.Uniform(16, 0.8)
	rep := run(t, nil, m, traffic.Bursty, traffic.IMIX(), 20*sim.Microsecond, 5)
	if rep.Throughput < rep.OfferedLoad-0.03 {
		t.Fatalf("throughput %.4f below offered %.4f", rep.Throughput, rep.OfferedLoad)
	}
}

func TestPacketOrderAndConservationChecksRun(t *testing.T) {
	// The per-pair sequence check and byte conservation are enforced
	// inside Run (they would have failed the other tests); this test
	// confirms they are exercised on a nontrivial mixed run.
	m := traffic.Uniform(16, 0.6)
	rep := run(t, nil, m, traffic.Bursty, traffic.UniformSize{Min: 64, Max: 1500},
		10*sim.Microsecond, 6)
	if rep.OfferedPackets != rep.DeliveredPackets {
		t.Fatalf("conservation hole: %d vs %d", rep.OfferedPackets, rep.DeliveredPackets)
	}
	if rep.OfferedBytes != rep.DeliveredBytes {
		t.Fatalf("byte conservation hole")
	}
}

func TestOQMimickingWithSpeedup(t *testing.T) {
	// §3.2 (6): with a small speedup the HBM switch mimics the ideal
	// OQ switch within a bounded relative delay. The bound for frame-
	// based service is a few frame drain times (a frame of 512 KB
	// drains in 1.64 us; the cyclical visit period spans N frames).
	m := traffic.Uniform(16, 0.9)
	rep := run(t, func(c *Config) {
		c.Shadow = true
		c.Speedup = 1.1
	}, m, traffic.Poisson, traffic.Fixed(1500), 30*sim.Microsecond, 7)
	if !rep.ShadowRun {
		t.Fatal("shadow not run")
	}
	// Bounded: max relative delay under ~3 cyclical visit periods
	// (3 * N * frame drain ~ 80 us) and not growing with the run.
	bound := 80 * sim.Microsecond
	if rep.RelDelayMax > bound {
		t.Fatalf("relative delay max %v exceeds bound %v", rep.RelDelayMax, bound)
	}
	if rep.RelDelayMean <= 0 {
		t.Fatal("relative delay not measured")
	}
}

func TestRelativeDelayBoundedOverTime(t *testing.T) {
	// The mimicking bound must not grow with simulation length: run
	// two horizons and compare the p99 relative delay.
	m := traffic.Uniform(16, 0.9)
	short := run(t, func(c *Config) { c.Shadow = true }, m, traffic.Poisson,
		traffic.Fixed(1500), 10*sim.Microsecond, 8)
	long := run(t, func(c *Config) { c.Shadow = true }, m, traffic.Poisson,
		traffic.Fixed(1500), 40*sim.Microsecond, 8)
	if float64(long.RelDelayP99) > 2.5*float64(short.RelDelayP99)+float64(5*sim.Microsecond) {
		t.Fatalf("relative delay grows with horizon: %v -> %v",
			short.RelDelayP99, long.RelDelayP99)
	}
}

func TestBypassReducesLowLoadLatency(t *testing.T) {
	// §4 "Latency and bypass": padding+bypass cuts latency when load
	// is low (frames would otherwise take ages to fill).
	m := traffic.Uniform(16, 0.05)
	horizon := 40 * sim.Microsecond
	with := run(t, func(c *Config) {
		c.Policy = core.Policy{PadFrames: true, BypassHBM: true}
		c.FlushTimeout = 100 * sim.Nanosecond
		c.PadTimeout = 200 * sim.Nanosecond
	}, m, traffic.Poisson, traffic.Fixed(1500), horizon, 9)
	without := run(t, func(c *Config) {
		c.Policy = core.Policy{}
		c.FlushTimeout = 100 * sim.Nanosecond
	}, m, traffic.Poisson, traffic.Fixed(1500), horizon, 9)
	if with.LatencyP50 >= without.LatencyP50 {
		t.Fatalf("bypass did not help: p50 %v vs %v", with.LatencyP50, without.LatencyP50)
	}
	if with.FramesBypassed == 0 {
		t.Fatal("no frames bypassed at low load")
	}
}

func TestPadWithoutBypassStillHelps(t *testing.T) {
	m := traffic.Uniform(16, 0.05)
	horizon := 40 * sim.Microsecond
	padOnly := run(t, func(c *Config) {
		c.Policy = core.Policy{PadFrames: true}
		c.FlushTimeout = 100 * sim.Nanosecond
		c.PadTimeout = 200 * sim.Nanosecond
	}, m, traffic.Poisson, traffic.Fixed(1500), horizon, 9)
	none := run(t, func(c *Config) {
		c.Policy = core.Policy{}
		c.FlushTimeout = 100 * sim.Nanosecond
	}, m, traffic.Poisson, traffic.Fixed(1500), horizon, 9)
	if padOnly.LatencyP50 >= none.LatencyP50 {
		t.Fatalf("padding did not help: p50 %v vs %v", padOnly.LatencyP50, none.LatencyP50)
	}
	if padOnly.FramesPadded == 0 {
		t.Fatal("no frames padded")
	}
}

func TestFrameAccountingConsistent(t *testing.T) {
	m := traffic.Uniform(16, 0.5)
	rep := run(t, nil, m, traffic.Poisson, traffic.Fixed(1500), 10*sim.Microsecond, 10)
	// Every written frame must be read; bypassed frames never touch
	// the HBM.
	if rep.FramesWritten != rep.FramesRead {
		t.Fatalf("frames written %d != read %d", rep.FramesWritten, rep.FramesRead)
	}
	if rep.FramesWritten+rep.FramesBypassed == 0 {
		t.Fatal("no frames moved")
	}
}

func TestTailHeadSRAMWithinSizingBounds(t *testing.T) {
	// The measured tail-SRAM high-water must stay within the §4 sizing
	// model's budget (N modules x 512 KB = 8 MB for the tail stage).
	m := traffic.Uniform(16, 0.95)
	rep := run(t, nil, m, traffic.Poisson, traffic.IMIX(), 20*sim.Microsecond, 11)
	if rep.TailHighWater > 16*512*1024 {
		t.Fatalf("tail high water %d exceeds 8 MB budget", rep.TailHighWater)
	}
	if rep.TailHighWater == 0 {
		t.Fatal("tail never used?")
	}
}

func TestHashedEgressPreservesFlowOrder(t *testing.T) {
	// With hashed egress the switch spreads flows over α·W
	// wavelengths; the per-(input,output) sequence check inside Run
	// (which would fail on reordering) must still pass because a flow
	// always hashes to the same wavelength.
	m := traffic.Uniform(16, 0.3)
	rep := run(t, func(c *Config) {
		c.HashedEgress = true
		c.Subchannels = 64
		c.HashSeed = 1234
	}, m, traffic.Poisson, traffic.IMIX(), 10*sim.Microsecond, 12)
	if rep.DeliveredPackets == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestWavelengthGranularIngress(t *testing.T) {
	// Feed one port as 64 parallel 40 Gb/s WDM channels (the physical
	// ingress of §2.2) instead of one 2.56 Tb/s aggregate. Order,
	// conservation and throughput must hold.
	cfg := Reference()
	cfg.Speedup = 1.1
	sw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.Uniform(16, 0.9)
	srcs := traffic.WavelengthSources(m, 64, 40*sim.Gbps, traffic.Poisson,
		traffic.Fixed(1500), sim.NewRNG(17))
	rep, err := sw.Run(traffic.NewMux(srcs), 15*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) > 0 {
		t.Fatalf("invariant violations: %v", rep.Errors)
	}
	if rep.Throughput < rep.OfferedLoad-0.02 {
		t.Fatalf("throughput %.4f below offered %.4f", rep.Throughput, rep.OfferedLoad)
	}
}

func TestScaledConfigRunsFaster(t *testing.T) {
	// The 1-stack scaled configuration must behave identically in
	// structure (it is used by long-horizon experiments).
	cfg := Scaled(1, 640*sim.Gbps)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	sw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := traffic.Uniform(16, 0.8)
	srcs := traffic.UniformSources(m, cfg.PortRate, traffic.Poisson, traffic.Fixed(1500), sim.NewRNG(13))
	rep, err := sw.Run(traffic.NewMux(srcs), 50*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) > 0 {
		t.Fatalf("errors: %v", rep.Errors)
	}
	if rep.Throughput < rep.OfferedLoad-0.02 {
		t.Fatalf("scaled switch throughput %.4f below offered %.4f", rep.Throughput, rep.OfferedLoad)
	}
}

func TestFullChannelSimulationAgrees(t *testing.T) {
	// Cross-check the lockstep single-channel optimization against the
	// full 32-channel simulation on a scaled switch.
	runOnce := func(full bool) *Report {
		cfg := Scaled(1, 640*sim.Gbps)
		cfg.FullChannels = full
		sw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := traffic.Uniform(16, 0.7)
		srcs := traffic.UniformSources(m, cfg.PortRate, traffic.Poisson, traffic.Fixed(1500), sim.NewRNG(14))
		rep, err := sw.Run(traffic.NewMux(srcs), 10*sim.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := runOnce(false), runOnce(true)
	if a.DeliveredPackets != b.DeliveredPackets || a.LatencyMean != b.LatencyMean ||
		a.FramesWritten != b.FramesWritten {
		t.Fatalf("mirror mismatch: %v vs %v", a, b)
	}
}

func TestMinSpeedupMatchesTransitionArithmetic(t *testing.T) {
	cfg := Reference()
	// At load 1.0 the pins must cover 2x line rate plus the ~2%
	// transitions: speedup ≈ 1.0195 (cycle 104.4/102.4 ns).
	got := cfg.MinSpeedupFor(1.0)
	if got < 1.015 || got > 1.025 {
		t.Fatalf("min speedup %.4f want ~1.02", got)
	}
	// At load 0.95 even speedup 1.0 has headroom.
	if cfg.MinSpeedupFor(0.95) > 1.0 {
		t.Fatalf("load 0.95 needs %.4f", cfg.MinSpeedupFor(0.95))
	}
}

func TestPerOutputBytesReported(t *testing.T) {
	m := traffic.Uniform(16, 0.5)
	rep := run(t, nil, m, traffic.Poisson, traffic.Fixed(1500), 5*sim.Microsecond, 21)
	if len(rep.PerOutputBytes) != 16 {
		t.Fatalf("%d per-output entries", len(rep.PerOutputBytes))
	}
	var total int64
	for _, b := range rep.PerOutputBytes {
		if b == 0 {
			t.Fatal("an output delivered nothing under uniform traffic")
		}
		total += b
	}
	if total != rep.DeliveredBytes {
		t.Fatalf("per-output sum %d != delivered %d", total, rep.DeliveredBytes)
	}
}

func TestReportString(t *testing.T) {
	m := traffic.Uniform(16, 0.2)
	rep := run(t, func(c *Config) { c.Shadow = true }, m, traffic.Poisson,
		traffic.Fixed(1500), 2*sim.Microsecond, 15)
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

// TestAdvanceToAtArrivalInstants pins the sharding invariant where the
// scheduler's arrival lane makes it subtle: AdvanceTo exactly at
// arrival instants and one picosecond either side of them, then
// Finish, must execute the same events as Run and give a byte-identical
// report.
func TestAdvanceToAtArrivalInstants(t *testing.T) {
	const horizon = 1 * sim.Microsecond
	cfg := Reference()
	cfg.Speedup = 1.1
	cfg.Shadow = true
	mux := func() *traffic.Mux {
		return traffic.NewMux(traffic.UniformSources(traffic.Uniform(cfg.PFI.N, 0.9),
			cfg.PortRate, traffic.Poisson, traffic.Fixed(64), sim.NewRNG(31)))
	}
	// The arrival instants come from a twin of the stream the switch
	// pumps; every fifth one is a slicing point.
	var cuts []sim.Time
	for src, i := mux(), 0; ; i++ {
		p, at := src.Next()
		if p == nil || at > horizon {
			break
		}
		if i%5 == 0 {
			cuts = append(cuts, at-1, at, at+1)
		}
	}
	if len(cuts) < 3000 {
		t.Fatalf("only %d slicing points; the stream is too thin to test the lane", len(cuts))
	}

	whole, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.Run(mux(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	sliced, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sliced.Start(mux(), horizon)
	last := sim.Time(0)
	for _, c := range cuts {
		if c >= last {
			sliced.AdvanceTo(c)
			last = c
		}
	}
	got, err := sliced.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want); g != w {
		t.Fatalf("sliced report differs from Run's:\n got %s\nwant %s", g, w)
	}
	if g, w := sliced.CoreStats().Sched.Events, whole.CoreStats().Sched.Events; g != w {
		t.Fatalf("sliced run executed %d events, Run %d", g, w)
	}
}
