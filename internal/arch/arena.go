// Package arch is the cross-architecture arena: it runs one workload
// stream through every router design the paper compares — the SPS HBM
// switch, the ideal output-queued reference, the spray+reorder
// statistical switch, the k×k mesh, the three-stage PPS, and a
// crosspoint-queued crossbar — and reports a unified
// (architecture × workload) grid of throughput, delay percentiles,
// and buffering peaks. Where router/ experiments probe each design
// against hand-built worst cases, the arena asks the §2 design-process
// question under *realistic* traffic (package workload): which
// architectures survive heavy tails, bursts, and day-curves, and at
// what buffering cost.
package arch

import (
	"fmt"
	"strings"

	"pbrouter/internal/baseline"
	"pbrouter/internal/hbm"
	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/stats"
	"pbrouter/internal/traffic"
	"pbrouter/internal/validate"
)

// Architecture names; designs fixes their grid order.
const (
	ArchSPS   = "sps"   // §3 single-port HBM switch (hbmswitch)
	ArchOQ    = "oq"    // ideal output-queued shared memory
	ArchCQ    = "cq"    // crosspoint-queued crossbar (FlexCross-style)
	ArchSpray = "spray" // random channel spraying + output resequencing
	ArchPPS   = "pps"   // three-stage parallel packet switch (§2.1 D3)
	ArchMesh  = "mesh"  // k×k mesh of small switches (§2.1 D2)
)

// design is one arena architecture: its name, how one cell of it
// runs, and any extra configuration it needs beyond SweepConfig.Check.
// run's violations are non-empty only for SPS, the one design with a
// structural observer.
type design struct {
	name  string
	run   func(c SweepConfig, stream traffic.Stream, m *traffic.Matrix) (Cell, []validate.Violation, error)
	check func(c SweepConfig) error // nil: no design-specific constraint
}

// designs is the arena in canonical grid order: SPS first (the
// paper's design), OQ second (the ideal every column is normalized
// against). Adding a design is one entry here plus its run function.
var designs = []design{
	{name: ArchSPS, run: SweepConfig.runSPS},
	{name: ArchOQ, run: SweepConfig.runOQ},
	{name: ArchCQ, run: SweepConfig.runCQ},
	{name: ArchSpray, run: SweepConfig.runSpray},
	{name: ArchPPS, run: SweepConfig.runPPS},
	{name: ArchMesh, run: SweepConfig.runMesh, check: checkMesh},
}

// ArchNames lists every architecture in canonical order.
func ArchNames() []string {
	names := make([]string, len(designs))
	for i, d := range designs {
		names[i] = d.name
	}
	return names
}

// designOf looks an architecture up by name.
func designOf(name string) (design, error) {
	for _, d := range designs {
		if d.name == name {
			return d, nil
		}
	}
	return design{}, fmt.Errorf("arch: unknown architecture %q (%s)",
		name, strings.Join(ArchNames(), "|"))
}

// ppsSpeedup is the internal speedup of the PPS middle stage — the
// same 1.1 convention the SPS cells use, so the two load-balanced
// designs are compared at equal internal capacity margin.
const ppsSpeedup = 1.1

// Cell is the unified measurement of one (architecture, workload)
// grid cell. Every architecture maps its own instrumentation onto
// these fields; docs/workloads.md tabulates how each design fills
// each one, and where two designs' numbers are not the same quantity.
type Cell struct {
	// Throughput is bytes delivered by the horizon over bytes offered
	// (below 1: backlog or loss) for every design but SPS, which
	// reports its switch's post-warmup delivered rate over its offered
	// load and can exceed 1.
	Throughput float64 `json:"throughput"`
	// LatencyP50/P99 of delivered packets, post-horizon departures
	// included. For spray and PPS this is the memory/middle-stage
	// completion delay (resequencing wait is not in it).
	LatencyP50 sim.Time `json:"latency_p50_ps"`
	LatencyP99 sim.Time `json:"latency_p99_ps"`
	// QueuePeak is peak buffering in bytes: tail SRAM for SPS, largest
	// per-output backlog for OQ and CQ, the reorder buffer for spray.
	// PPS does not measure one (0); the mesh reports the backlog still
	// in the network at the horizon, not a peak.
	QueuePeak int64 `json:"queue_peak_bytes"`
	// ReorderPeak is the output resequencing buffer high-water (spray
	// and PPS only; the others deliver in order).
	ReorderPeak int64 `json:"reorder_peak_bytes"`
	// LossFrac is dropped bytes over offered bytes (CQ's crosspoint
	// overruns; SPS only when memory is made small).
	LossFrac float64 `json:"loss_frac"`
	// OEOStages is the optical-electrical conversion count per packet
	// (§2.1 Challenge 3): 1 for single-stage designs, 3 for PPS. The
	// mesh reports mean inter-switch hops, one less than the switches
	// crossed, so it reads below 1 on small meshes.
	OEOStages float64 `json:"oeo_stages"`
	// Violations counts failed validation invariants (SPS cells run
	// under the full structural observer; baselines have none).
	Violations int `json:"violations"`
}

// runSPS drives the HBM switch under the full validation observer.
func (c SweepConfig) runSPS(stream traffic.Stream, m *traffic.Matrix) (Cell, []validate.Violation, error) {
	cfg := hbmswitch.Scaled(c.Stacks, c.portRate())
	cfg.PFI.N = c.N
	cfg.Speedup = 1.1
	cfg.FlushTimeout = 100 * sim.Nanosecond
	cfg.Shadow = c.Validate == nil || *c.Validate
	sw, err := hbmswitch.New(cfg)
	if err != nil {
		return Cell{}, nil, err
	}
	var obs *validate.Observer
	if cfg.Shadow {
		obs = validate.NewObserver(cfg, c.HorizonPs)
		sw.SetProbe(obs.Probe())
	}
	// Run's error is the first of rep.Errors; the observer reports all
	// of them as violations, so it is not returned here.
	rep, _ := sw.Run(stream, c.HorizonPs)
	cell := Cell{
		LatencyP50: rep.LatencyP50,
		LatencyP99: rep.LatencyP99,
		QueuePeak:  rep.TailHighWater,
		LossFrac:   rep.LossFraction,
		OEOStages:  1,
	}
	if rep.OfferedLoad > 0 {
		cell.Throughput = rep.Throughput / rep.OfferedLoad
	}
	var vs []validate.Violation
	if obs != nil {
		vs = obs.CheckEpoch(rep, m.Admissible(1e-6))
	}
	cell.Violations = len(vs)
	return cell, vs, nil
}

// departureCell feeds the stream through a design that fixes each
// packet's departure when it arrives (OQ, spray, PPS) and measures
// what they share: delay percentiles and delivered-by-horizon
// throughput. The caller fills in its design's own fields.
func (c SweepConfig) departureCell(stream traffic.Stream, arrive func(*packet.Packet) sim.Time) Cell {
	hist := stats.NewLatencyHistogram()
	var offered, byHorizon stats.Counter
	for {
		p, at := stream.Next()
		if p == nil || at > c.HorizonPs {
			break
		}
		offered.Add(p.Size)
		done := arrive(p)
		hist.AddTime(done - p.Arrival)
		if done <= c.HorizonPs {
			byHorizon.Add(p.Size)
		}
	}
	cell := Cell{
		LatencyP50: hist.PercentileTime(0.50),
		LatencyP99: hist.PercentileTime(0.99),
		OEOStages:  1,
	}
	if offered.Bytes > 0 {
		cell.Throughput = float64(byHorizon.Bytes) / float64(offered.Bytes)
	}
	return cell
}

// runOQ drives the ideal output-queued reference.
func (c SweepConfig) runOQ(stream traffic.Stream, _ *traffic.Matrix) (Cell, []validate.Violation, error) {
	sw := baseline.NewOQSwitch(c.N, c.portRate())
	cell := c.departureCell(stream, sw.Arrive)
	cell.QueuePeak = sw.MaxHighWater()
	return cell, nil, nil
}

// runCQ drives the crosspoint-queued crossbar, which drops on
// crosspoint overrun and departs lazily, so it keeps its own counters.
func (c SweepConfig) runCQ(stream traffic.Stream, _ *traffic.Matrix) (Cell, []validate.Violation, error) {
	sw := baseline.NewCQSwitch(c.N, c.portRate(), c.CrosspointKB*1024)
	sw.SetHorizon(c.HorizonPs)
	for {
		p, at := stream.Next()
		if p == nil || at > c.HorizonPs {
			break
		}
		sw.Arrive(p)
	}
	sw.Finish()
	cell := Cell{
		LatencyP50: sw.Latency.PercentileTime(0.50),
		LatencyP99: sw.Latency.PercentileTime(0.99),
		QueuePeak:  sw.MaxHighWater(),
		OEOStages:  1,
	}
	if sw.Offered.Bytes > 0 {
		cell.Throughput = float64(sw.DeliveredByHorizon()) / float64(sw.Offered.Bytes)
		cell.LossFrac = float64(sw.Dropped.Bytes) / float64(sw.Offered.Bytes)
	}
	return cell, nil, nil
}

// runSpray drives the spray+reorder statistical switch. The channel
// choice RNG is part of the architecture, not the workload, so it is
// seeded independently of the stream.
func (c SweepConfig) runSpray(stream traffic.Stream, _ *traffic.Matrix) (Cell, []validate.Violation, error) {
	geo, tim := hbm.HBM4Geometry(c.Stacks), hbm.HBM4Timing()
	sw := baseline.NewSpraySwitch(geo, tim, sim.NewRNG(c.Seed+0x5954a7))
	cell := c.departureCell(stream, sw.Arrive)
	sw.Finish()
	cell.QueuePeak, cell.ReorderPeak = sw.PeakReorderBufferBytes(), sw.PeakReorderBufferBytes()
	return cell, nil, nil
}

// runPPS drives the three-stage parallel packet switch.
func (c SweepConfig) runPPS(stream traffic.Stream, _ *traffic.Matrix) (Cell, []validate.Violation, error) {
	sw := baseline.NewPPS(c.N, c.H, c.portRate(), ppsSpeedup)
	cell := c.departureCell(stream, sw.Arrive)
	sw.Finish()
	cell.ReorderPeak = sw.PeakReorderBufferBytes()
	cell.OEOStages = baseline.OEOStages
	return cell, nil, nil
}

// checkMesh requires the square port count a k×k mesh needs.
func checkMesh(c SweepConfig) error {
	if k := isqrt(c.N); k*k != c.N {
		return fmt.Errorf("arch: mesh needs a square port count, got N=%d", c.N)
	}
	return nil
}

// runMesh drives the event-level k×k mesh.
func (c SweepConfig) runMesh(stream traffic.Stream, _ *traffic.Matrix) (Cell, []validate.Violation, error) {
	if err := checkMesh(c); err != nil {
		return Cell{}, nil, err
	}
	ms, err := baseline.NewMeshSim(isqrt(c.N), c.portRate())
	if err != nil {
		return Cell{}, nil, err
	}
	rep, err := ms.RunStream(stream, c.HorizonPs)
	if err != nil {
		return Cell{}, nil, err
	}
	cell := Cell{
		LatencyP50: rep.LatencyP50,
		LatencyP99: rep.LatencyP99,
		QueuePeak:  rep.OfferedBytes - rep.ByHorizonBytes,
		OEOStages:  rep.MeanHops,
	}
	if rep.OfferedBytes > 0 {
		cell.Throughput = float64(rep.ByHorizonBytes) / float64(rep.OfferedBytes)
	}
	return cell, nil, nil
}

// isqrt is the integer square root for small n.
func isqrt(n int) int {
	k := 0
	for (k+1)*(k+1) <= n {
		k++
	}
	return k
}
