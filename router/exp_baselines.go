package router

import (
	"fmt"

	"pbrouter/internal/baseline"
	"pbrouter/internal/hbm"
	"pbrouter/internal/packet"
	"pbrouter/internal/parallel"
	"pbrouter/internal/sim"
	"pbrouter/internal/sram"
	"pbrouter/internal/traffic"
)

// E2: the mesh baseline of §2.1 Design 2. E3: the random-access HBM
// baselines of §3.1 Challenge 6.

func init() {
	register(&Experiment{
		ID:    "E2",
		Title: "Mesh guaranteed capacity",
		Claim: "§2.1: 'in a 10×10 mesh, the guaranteed capacity is at most 20% of the total capacity for an arbitrary admissible traffic pattern, wasting 80% of the capacity and power'",
		Run:   runE2,
	})
	register(&Experiment{
		ID:    "E3",
		Title: "Random HBM access throughput loss",
		Claim: "§3.1: oblivious random access loses 2.6x for 1,500-byte packets, 39x for 64-byte ones, and up to 1,250x without parallel channels",
		Run:   runE3,
	})
}

func runE2(opt Options) (*Result, error) {
	res := &Result{}
	horizon := 2 * sim.Millisecond
	if opt.Quick {
		horizon = sim.Millisecond
	}
	// The two packet-level sims — the 8x8 mesh queueing cross-check and
	// the iSLIP reference — are independent of the analytic rows and of
	// each other, so they fan out first; the table is assembled below
	// in its original order.
	type simOut struct {
		mesh *baseline.MeshReport
		iq   float64
	}
	sims, err := parallel.Map(parallel.Workers(opt.Parallelism), 2, func(i int) (simOut, error) {
		switch i {
		case 0:
			ms, err := baseline.NewMeshSim(8, 10*sim.Gbps)
			if err != nil {
				return simOut{}, err
			}
			rep, err := ms.Run(worstCaseFor(8), traffic.Fixed(1500), horizon, opt.Seed+11)
			if err != nil {
				return simOut{}, err
			}
			return simOut{mesh: rep}, nil
		default:
			iq, err := baseline.NewIQSwitch(8, 10*sim.Gbps, 64, 1)
			if err != nil {
				return simOut{}, err
			}
			srcs := traffic.UniformSources(traffic.Uniform(8, 0.9), 10*sim.Gbps,
				traffic.Poisson, traffic.Fixed(512), sim.NewRNG(opt.Seed+13))
			mux := traffic.NewMux(srcs)
			return simOut{iq: iq.Run(mux.Next, horizon/2)}, nil
		}
	})
	if err != nil {
		return nil, err
	}
	res.SimTime += horizon + horizon/2

	ks := []int{4, 8, 10, 16}
	if err := runSweep(opt, res, len(ks), func(i int, sub *Result) error {
		k := ks[i]
		m, err := baseline.NewMesh(k)
		if err != nil {
			return err
		}
		paper := "-"
		if k == 10 {
			paper = "<= 20%"
		}
		sub.Addf(fmt.Sprintf("%dx%d mesh guaranteed capacity (XY, worst admissible TM)", k, k),
			paper, "%.1f%% (analytic bound 2/k = %.1f%%)",
			100*m.GuaranteedCapacity(), 100*baseline.GuaranteedCapacityBound(k))
		return nil
	}); err != nil {
		return nil, err
	}
	m10, _ := baseline.NewMesh(10)
	uni := traffic.Uniform(100, 1.0)
	res.Addf("10x10 mesh throughput, uniform TM", "-", "%.1f%%", 100*m10.Throughput(uni))
	res.Addf("10x10 mesh mean hops, uniform TM", "-", "%.2f (each hop duplicates capacity+power)",
		m10.InternalTrafficFactor(uni))

	// Event-level cross-check: a packet-granular queueing simulation
	// of an 8x8 mesh on the worst admissible pattern.
	msRep := sims[0].mesh
	res.Addf("8x8 mesh, worst TM, packet-level queueing sim", "2/k = 25%",
		"%.1f%% delivered; bisection links %.0f%% utilized; only %.0f%% of packets escaped the queues by the horizon",
		100*msRep.Throughput, 100*msRep.MaxLinkUtil, 100*msRep.DeliveredFrac)

	res.Add("SPS stages per packet", "1 OEO stage", "1 (by construction: passive split)")
	res.Addf("PPS/load-balanced OEO stages", "3", "%d", baseline.OEOStages)

	// Design 1 (single centralized switch) made quantitative: a
	// crossbar scheduler like iSLIP must complete a request-grant-
	// accept round every cell time.
	res.Addf("centralized crossbar scheduler rate at P=2.56 Tb/s ports", "prohibitive",
		"%.0f decisions/s per port (200 ps per iSLIP round); PFI's cyclical crossbar needs none",
		baseline.SchedulerDecisionsPerSecond(2560*sim.Gbps, 64))
	res.Addf("iSLIP input-queued switch, uniform 0.9 (reference impl)", "-",
		"%.2f delivered — fine for uniform traffic, but needs the scheduler above",
		sims[1].iq)
	return res, nil
}

// worstCaseFor builds the bisection-stressing matrix for a k×k mesh.
func worstCaseFor(k int) *traffic.Matrix {
	m, err := baseline.NewMesh(k)
	if err != nil {
		panic(err)
	}
	return m.WorstCaseMatrix()
}

func runE3(opt Options) (*Result, error) {
	geo, tim := hbm.HBM4Geometry(1), hbm.HBM4Timing()
	res := &Result{}
	packets := 32 * 200
	if opt.Quick {
		packets = 32 * 40
	}

	sizes := []struct {
		bytes int
		paper string
	}{
		{1500, "2.6x"},
		{594, "-"},
		{64, "39x"},
	}
	// Each packet size (and the wide-interface variant, point len(sizes))
	// is an independent backlogged-controller sweep point.
	if err := runSweep(opt, res, len(sizes)+1, func(i int, sub *Result) error {
		if i == len(sizes) {
			// No parallel channels: one stack's ultra-wide interface as
			// a single logical memory.
			analyticWide := hbm.AnalyticRandomFactor(geo, tim, 64, true, 32)
			memW := hbm.MustMemory(geo, tim)
			rcW := hbm.NewRandomController(memW, hbm.ModeWorstCase, sim.NewRNG(opt.Seed+3))
			_, simW, err := rcW.RunWideInterface(packets/8, 64)
			if err != nil {
				return err
			}
			sub.Addf("64 B packets, no parallel channels (2,048-bit interface)", "up to 1,250x",
				"%.0fx analytic; %.0fx simulated", analyticWide, simW)
			return nil
		}
		tc := sizes[i]
		analytic := hbm.AnalyticRandomFactor(geo, tim, tc.bytes, false, 0)
		mem := hbm.MustMemory(geo, tim)
		rc := hbm.NewRandomController(mem, hbm.ModeWorstCase, sim.NewRNG(opt.Seed+1))
		_, sim1, err := rc.RunBacklogged(packets, tc.bytes)
		if err != nil {
			return err
		}
		mem2 := hbm.MustMemory(geo, tim)
		rc2 := hbm.NewRandomController(mem2, hbm.ModeBankInterleaved, sim.NewRNG(opt.Seed+2))
		_, sim2, err := rc2.RunBacklogged(packets, tc.bytes)
		if err != nil {
			return err
		}
		sub.Addf(fmt.Sprintf("%d B packets, per-channel random access", tc.bytes), tc.paper,
			"%.1fx analytic; %.1fx simulated (full timing); %.1fx with ideal bank pipelining",
			analytic, sim1, sim2)
		return nil
	}); err != nil {
		return nil, err
	}

	// The spraying switch (random spread + reorder buffer) on the same
	// memory, for the §4 SRAM-sizing comparison.
	spray := baseline.NewSpraySwitch(geo, tim, sim.NewRNG(opt.Seed+4))
	seqs := map[int]int64{}
	for i := 0; i < packets*4; i++ {
		out := i % 16
		spray.Arrive(&packet.Packet{ID: uint64(i), Size: 64, Output: int32(out), Seq: seqs[out]})
		seqs[out]++
	}
	achieved := spray.Finish()
	res.Addf("spraying switch, 64 B backlog", "-", "%.1fx reduction; peak reorder buffer %d KB",
		float64(geo.PeakRate())/float64(achieved), spray.PeakReorderBufferBytes()/1024)

	// The other half of Challenge 6: a true OQ shared-memory switch
	// over the same HBM needs per-packet bookkeeping SRAM.
	book := sram.OQBookkeepingBytes(256<<30, 64)
	res.Addf("ideal-OQ bookkeeping SRAM over one switch's 256 GB", "several GBs",
		"%.1f GB of pointers at 64 B cells (PFI needs none: counters only)",
		float64(book)/(1<<30))
	res.Note("simulated worst-case factors exceed the paper's arithmetic slightly because tRAS binds for small packets; the paper's (tRCD+tRP+tx)/tx model is reproduced exactly by the analytic column")
	return res, nil
}
