package workload

import (
	"fmt"
	"math"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
)

// mtu is the segment size flows are cut into — standard Ethernet MTU.
const mtu = 1500

// FlowDist is a flow-size distribution: how many bytes one flow
// carries. Distinct from traffic.SizeDist (per-packet wire sizes) —
// flows span many packets.
type FlowDist interface {
	// SampleBytes draws one flow size.
	SampleBytes(rng *sim.RNG) int64
	// MeanBytes is the distribution mean, used to pace flow arrivals.
	MeanBytes() float64
	// Name identifies the distribution in reports.
	Name() string
}

// ParetoFlows is the bounded (truncated) Pareto flow-size
// distribution: P(X > x) ∝ x^-alpha on [lo, hi]. Alpha in (1, 2) gives
// the heavy-tailed elephant/mice split measured on internet links —
// smaller alpha, heavier tail.
type ParetoFlows struct {
	Alpha  float64
	Lo, Hi float64
	mean   float64
}

// NewParetoFlows builds a bounded Pareto with tail index alpha, cap
// hi, and the lower bound solved (by bisection — the mean is monotone
// in it) so the distribution mean hits meanBytes.
func NewParetoFlows(alpha float64, meanBytes, hi int64) *ParetoFlows {
	if hi < 2*mtu {
		hi = 2 * mtu
	}
	target := float64(meanBytes)
	if target >= float64(hi) {
		target = float64(hi) / 2
	}
	if target < packet.MinSize {
		target = packet.MinSize
	}
	lo, up := 1.0, float64(hi)
	for i := 0; i < 64; i++ {
		mid := (lo + up) / 2
		if boundedParetoMean(alpha, mid, float64(hi)) < target {
			lo = mid
		} else {
			up = mid
		}
	}
	return &ParetoFlows{Alpha: alpha, Lo: lo, Hi: float64(hi), mean: target}
}

// boundedParetoMean is the mean of a Pareto(alpha) truncated to
// [lo, hi], for alpha != 1.
func boundedParetoMean(alpha, lo, hi float64) float64 {
	r := math.Pow(lo/hi, alpha)
	return math.Pow(lo, alpha) / (1 - r) * alpha / (alpha - 1) *
		(math.Pow(lo, 1-alpha) - math.Pow(hi, 1-alpha))
}

// SampleBytes implements FlowDist via the bounded-Pareto inverse CDF.
func (d *ParetoFlows) SampleBytes(rng *sim.RNG) int64 {
	u := rng.Float64()
	x := d.Lo / math.Pow(1-u*(1-math.Pow(d.Lo/d.Hi, d.Alpha)), 1/d.Alpha)
	if x > d.Hi {
		x = d.Hi
	}
	if x < packet.MinSize {
		x = packet.MinSize
	}
	return int64(x)
}

// MeanBytes implements FlowDist.
func (d *ParetoFlows) MeanBytes() float64 { return d.mean }

// Name implements FlowDist.
func (d *ParetoFlows) Name() string { return fmt.Sprintf("pareto(%.2g)", d.Alpha) }

// LognormalFlows is the lognormal flow-size distribution, the other
// standard fit for measured flow sizes: ln X ~ N(mu, sigma²), capped
// at Max. The cap's truncation mass is negligible at the default
// parameters, so MeanBytes reports the analytic uncapped mean.
type LognormalFlows struct {
	Mu, Sigma float64
	Max       float64
	mean      float64
}

// NewLognormalFlows builds a lognormal with the given mean and
// log-stddev sigma (mu = ln mean − sigma²/2), capped at max bytes.
func NewLognormalFlows(meanBytes, sigma float64, max int64) *LognormalFlows {
	if meanBytes < packet.MinSize {
		meanBytes = packet.MinSize
	}
	return &LognormalFlows{
		Mu:    math.Log(meanBytes) - sigma*sigma/2,
		Sigma: sigma,
		Max:   float64(max),
		mean:  meanBytes,
	}
}

// SampleBytes implements FlowDist via Box–Muller (the sim RNG has no
// normal variate of its own).
func (d *LognormalFlows) SampleBytes(rng *sim.RNG) int64 {
	u1 := 1 - rng.Float64() // (0,1]: keeps the log finite
	u2 := rng.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	x := math.Exp(d.Mu + d.Sigma*z)
	if x > d.Max {
		x = d.Max
	}
	if x < packet.MinSize {
		x = packet.MinSize
	}
	return int64(x)
}

// MeanBytes implements FlowDist.
func (d *LognormalFlows) MeanBytes() float64 { return d.mean }

// Name implements FlowDist.
func (d *LognormalFlows) Name() string { return fmt.Sprintf("lognormal(%.2g)", d.Sigma) }

// FlowSource generates the heavy-tailed workload of one input port:
// flows arrive Poisson (paced so the long-run utilization equals the
// matrix row's load), each flow draws a size from the FlowDist and an
// output from the row weights, and its packets go out MTU-segmented
// back-to-back at line rate — an M/G/1 queue on the ingress link, so a
// single elephant occupies the port for its whole transfer and mice
// queue behind it. That burst-at-line-rate structure, not the mean
// load, is what stresses shallow-buffered architectures.
type FlowSource struct {
	input   int
	weights []float64
	rate    sim.Rate
	dist    FlowDist
	rng     *sim.RNG
	nextID  func() uint64

	meanGap  float64  // mean flow interarrival, ps
	clock    sim.Time // last flow-arrival epoch
	linkFree sim.Time // ingress link busy until here

	rem   int64 // bytes left in the current flow
	out   int
	tuple packet.FiveTuple
	idle  bool
}

// NewFlowSource builds the flow-level source for input i with the
// given matrix row. A zero-load row yields a silent source.
func NewFlowSource(input int, row []float64, lineRate sim.Rate, dist FlowDist,
	rng *sim.RNG, nextID func() uint64) *FlowSource {
	var load float64
	for _, w := range row {
		load += w
	}
	s := &FlowSource{
		input:   input,
		weights: row,
		rate:    lineRate,
		dist:    dist,
		rng:     rng,
		nextID:  nextID,
		idle:    load <= 0,
	}
	if !s.idle {
		// Utilization load = (mean flow bits / interarrival) / lineRate.
		s.meanGap = float64(sim.TransferTime(int64(dist.MeanBytes()*8), lineRate)) / load
	}
	return s
}

// Next implements traffic.Stream.
func (s *FlowSource) Next() (*packet.Packet, sim.Time) {
	if s.idle {
		return nil, 0
	}
	if s.rem == 0 {
		gap := sim.Time(s.rng.ExpFloat64() * s.meanGap)
		if gap < 1 {
			gap = 1
		}
		s.clock += gap
		size := s.dist.SampleBytes(s.rng)
		if size < packet.MinSize {
			size = packet.MinSize
		}
		s.rem = size
		s.out = s.rng.Pick(s.weights)
		s.tuple = packet.FiveTuple{
			SrcIP:   uint32(s.rng.Uint64()),
			DstIP:   uint32(s.rng.Uint64()),
			SrcPort: uint16(s.rng.Uint64()),
			DstPort: uint16(s.rng.Uint64()),
			Proto:   6,
		}
		if s.clock > s.linkFree {
			s.linkFree = s.clock
		}
	}
	seg := s.rem
	if seg > mtu {
		seg = mtu
		if s.rem-seg < packet.MinSize {
			seg = s.rem - packet.MinSize // keep the tail segment legal
		}
	}
	s.rem -= seg
	at := s.linkFree + sim.TransferTime(seg*8, s.rate)
	s.linkFree = at
	p := &packet.Packet{
		ID:      s.nextID(),
		Flow:    s.tuple,
		Size:    int32(seg),
		Input:   int32(s.input),
		Output:  int32(s.out),
		Arrival: at,
	}
	return p, at
}
