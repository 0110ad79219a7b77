package workload

import (
	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
)

// OnOffConfig parameterizes one ON/OFF source.
type OnOffConfig struct {
	Input      int
	Row        []float64 // matrix row: per-output weights, sum = mean load
	LineRate   sim.Rate
	Sizes      traffic.SizeDist
	BurstRatio float64  // peak/mean load during ON, >= 1
	OnMean     sim.Time // mean ON duration
	Pareto     bool     // Pareto(1.5) on/off durations instead of exponential
	RNG        *sim.RNG
	NextID     func() uint64
}

// OnOffSource is the classic bursty traffic model: the source
// alternates between ON periods, during which it emits Poisson
// arrivals at peak load = min(1, mean·BurstRatio), and silent OFF
// periods sized so the long-run average equals the row's mean load.
// Durations are exponential or Pareto(1.5); the Pareto case gives
// heavy-tailed busy periods — the self-similar traffic construction —
// so bursts arrive at line-rate-scale intensity for milliseconds-long
// stretches while the mean stays modest.
type OnOffSource struct {
	cfg     OnOffConfig
	peak    float64
	onMean  float64 // ps
	offMean float64 // ps
	idle    bool

	onUntil   sim.Time // current ON period ends here
	nextStart sim.Time // next packet's transmission start
}

// paretoDurShape is the tail index of Pareto on/off durations — 1.5 is
// the standard choice: finite mean, infinite variance, the regime that
// produces long-range dependence when many sources aggregate.
const paretoDurShape = 1.5

// NewOnOffSource builds the ON/OFF source for one input.
func NewOnOffSource(cfg OnOffConfig) *OnOffSource {
	var load float64
	for _, w := range cfg.Row {
		load += w
	}
	s := &OnOffSource{cfg: cfg, idle: load <= 0}
	if s.idle {
		return s
	}
	s.peak = load * cfg.BurstRatio
	if s.peak > 0.98 {
		s.peak = 0.98 // an ON period can't exceed the line rate
	}
	if s.peak < load {
		s.peak = load
	}
	duty := load / s.peak
	s.onMean = float64(cfg.OnMean)
	s.offMean = s.onMean * (1 - duty) / duty
	return s
}

// drawDur draws one ON or OFF duration with the configured law.
func (s *OnOffSource) drawDur(mean float64) sim.Time {
	var d float64
	if s.cfg.Pareto {
		// Pareto(1.5) with the given mean: mean = shape·min/(shape−1).
		d = s.cfg.RNG.Pareto(paretoDurShape, mean*(paretoDurShape-1)/paretoDurShape)
	} else {
		d = s.cfg.RNG.ExpFloat64() * mean
	}
	if d < 1 {
		d = 1
	}
	return sim.Time(d)
}

// Next implements traffic.Stream.
func (s *OnOffSource) Next() (*packet.Packet, sim.Time) {
	if s.idle {
		return nil, 0
	}
	rng := s.cfg.RNG
	// Roll forward through OFF periods until the next start falls
	// inside an ON window. offMean == 0 (BurstRatio 1) degenerates to
	// plain Poisson: the first window opens at 0 and never closes.
	for s.nextStart >= s.onUntil {
		onStart := s.onUntil
		if s.offMean > 0 {
			onStart += s.drawDur(s.offMean)
		}
		s.onUntil = onStart + s.drawDur(s.onMean)
		if s.nextStart < onStart {
			s.nextStart = onStart
		}
		if s.offMean == 0 {
			s.onUntil = sim.Forever
		}
	}
	size := s.cfg.Sizes.Sample(rng)
	tx := sim.TransferTime(int64(size)*8, s.cfg.LineRate)
	at := s.nextStart + tx
	// Poisson at peak load within the ON period.
	gap := sim.Time(rng.ExpFloat64() * float64(tx) * (1 - s.peak) / s.peak)
	s.nextStart = at + gap
	out := rng.Pick(s.cfg.Row)
	p := &packet.Packet{
		ID:      s.cfg.NextID(),
		Flow:    onOffTuple(s.cfg.Input, out),
		Size:    int32(size),
		Input:   int32(s.cfg.Input),
		Output:  int32(out),
		Arrival: at,
	}
	return p, at
}

// onOffTuple derives a stable per-(input,output) 5-tuple, so the
// reorder trackers see one long-lived flow per pair.
func onOffTuple(in, out int) packet.FiveTuple {
	h := mix64(uint64(in)<<32 | uint64(uint32(out)))
	return packet.FiveTuple{
		SrcIP:   uint32(h),
		DstIP:   uint32(h >> 32),
		SrcPort: uint16(in),
		DstPort: uint16(out),
		Proto:   17,
	}
}

// mix64 is the SplitMix64 finalizer — a cheap deterministic hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
