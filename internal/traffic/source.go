package traffic

import (
	"fmt"
	"math"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
)

// ArrivalKind selects the arrival process of a Source.
type ArrivalKind int

// Supported arrival processes.
const (
	// Poisson arrivals: exponential idle gaps between packets, subject
	// to the line-rate constraint (a packet cannot start before the
	// previous one finished transmitting).
	Poisson ArrivalKind = iota
	// Bursty arrivals: Pareto-sized trains of back-to-back packets
	// separated by off periods sized to hit the target load. This is
	// the stressful pattern for buffering experiments.
	Bursty
)

// String returns the process name.
func (k ArrivalKind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(k))
	}
}

// FlowPool hands out stable per-(input,output) 5-tuples so that egress
// ECMP/LAG hashing sees realistic flow populations. With zero Zipf
// skew flows are picked uniformly; with skew s > 0 flow i carries
// weight 1/(i+1)^s — the elephants-and-mice shape of real traffic.
type FlowPool struct {
	flows   [][][]packet.FiveTuple // [input][output]; grown on demand
	per     int
	rng     *sim.RNG
	weights []float64 // nil = uniform
}

// NewFlowPool returns a pool creating flowsPerPair tuples per
// (input, output) pair on first use, picked uniformly.
func NewFlowPool(flowsPerPair int, rng *sim.RNG) *FlowPool {
	if flowsPerPair <= 0 {
		panic("traffic: non-positive flows per pair")
	}
	return &FlowPool{per: flowsPerPair, rng: rng}
}

// NewZipfFlowPool returns a pool whose flows are picked with Zipf
// weights of the given skew (1.0 is a typical internet value; 0 is
// uniform).
func NewZipfFlowPool(flowsPerPair int, skew float64, rng *sim.RNG) *FlowPool {
	fp := NewFlowPool(flowsPerPair, rng)
	if skew > 0 {
		fp.weights = make([]float64, flowsPerPair)
		for i := range fp.weights {
			fp.weights[i] = 1 / math.Pow(float64(i+1), skew)
		}
	}
	return fp
}

// Pick returns a tuple for the given pair. Pair tables are indexed
// flat by (input, output) — first use creates the tuples (same lazy
// creation order as before), steady state is two slice loads.
func (fp *FlowPool) Pick(in, out int, rng *sim.RNG) packet.FiveTuple {
	fl := fp.pair(in, out)
	return fl[fp.index(len(fl), rng)]
}

// pair returns the pair's tuple table, creating it on first use. The
// table never changes afterwards, so callers may keep it.
func (fp *FlowPool) pair(in, out int) []packet.FiveTuple {
	for in >= len(fp.flows) {
		fp.flows = append(fp.flows, nil)
	}
	row := fp.flows[in]
	for out >= len(row) {
		row = append(row, nil)
	}
	fl := row[out]
	if fl == nil {
		fl = make([]packet.FiveTuple, fp.per)
		for i := range fl {
			fl[i] = packet.FiveTuple{
				SrcIP:   uint32(fp.rng.Uint64()),
				DstIP:   uint32(fp.rng.Uint64()),
				SrcPort: uint16(fp.rng.Uint64()),
				DstPort: uint16(fp.rng.Uint64()),
				Proto:   6,
			}
		}
		row[out] = fl
	}
	fp.flows[in] = row
	return fl
}

// index draws the position of one tuple in a pair's table of n.
func (fp *FlowPool) index(n int, rng *sim.RNG) int {
	if fp.weights != nil {
		return rng.Pick(fp.weights)
	}
	return rng.Intn(n)
}

// Source generates the packet arrival stream of one switch input. It
// is event-driven: Next returns packets in nondecreasing arrival time.
type Source struct {
	Input    int
	LineRate sim.Rate

	kind    ArrivalKind
	weights []float64 // per-output rates (row of the traffic matrix)
	// load is the row sum, added in index order from zero exactly as
	// RNG.Pick sums weights, so it is also Pick's total for the row.
	load  float64
	sizes SizeDist
	rng   *sim.RNG
	pool  *FlowPool
	flows [][]packet.FiveTuple // per-output pool tables, filled on first use

	// Per-size constants of the last packet size drawn: its
	// serialization time and its Poisson mean idle gap.
	lastSize int
	lastTx   sim.Time
	lastGap  float64

	nextStart  sim.Time
	burstLeft  int
	pendingOff sim.Time
	idgen      func() uint64
	seq        []int64            // per-output sequence numbers
	alloc      *packet.PacketPool // optional; nil allocates fresh packets

	// Bursty process parameters.
	burstShape float64
	burstMin   float64
}

// SourceConfig bundles Source construction parameters.
type SourceConfig struct {
	Input    int
	LineRate sim.Rate
	Kind     ArrivalKind
	Row      []float64 // traffic matrix row for this input
	Sizes    SizeDist
	RNG      *sim.RNG
	Pool     *FlowPool
	NextID   func() uint64
	// Alloc recycles packet structs. Sources sharing an Alloc with a
	// recycling consumer (a Mux driving an hbmswitch run) reach zero
	// steady-state allocations; nil keeps plain per-packet allocation,
	// which is required when the consumer retains packets (Window,
	// GenerateWindow, trace capture).
	Alloc *packet.PacketPool
	// BurstShape/BurstMinPkts tune the Bursty process; zero values get
	// defaults (shape 1.5, min 8 packets).
	BurstShape   float64
	BurstMinPkts float64
}

// NewSource builds a Source. The row gives per-output rate fractions;
// its sum is the input load and must be at most 1.
func NewSource(cfg SourceConfig) *Source {
	var load float64
	for _, r := range cfg.Row {
		if r < 0 {
			panic("traffic: negative rate in row")
		}
		load += r
	}
	if load > 1.0000001 {
		panic(fmt.Sprintf("traffic: input %d overloaded: row sum %.4f > 1", cfg.Input, load))
	}
	if cfg.Sizes == nil || cfg.RNG == nil || cfg.NextID == nil {
		panic("traffic: incomplete source config")
	}
	s := &Source{
		Input:      cfg.Input,
		LineRate:   cfg.LineRate,
		kind:       cfg.Kind,
		weights:    append([]float64(nil), cfg.Row...),
		load:       load,
		sizes:      cfg.Sizes,
		rng:        cfg.RNG,
		pool:       cfg.Pool,
		lastSize:   -1,
		idgen:      cfg.NextID,
		alloc:      cfg.Alloc,
		seq:        make([]int64, len(cfg.Row)),
		burstShape: cfg.BurstShape,
		burstMin:   cfg.BurstMinPkts,
	}
	if s.burstShape == 0 {
		s.burstShape = 1.5
	}
	if s.burstMin == 0 {
		s.burstMin = 8
	}
	if s.pool != nil {
		s.flows = make([][]packet.FiveTuple, len(cfg.Row))
	}
	return s
}

// Load returns the input's configured load (row sum).
func (s *Source) Load() float64 { return s.load }

// Next returns the next packet and the time its last byte has arrived
// (so the switch can operate store-and-forward per batch). It returns
// nil when the source is idle forever (zero load).
func (s *Source) Next() (*packet.Packet, sim.Time) {
	if s.load <= 0 {
		return nil, sim.Forever
	}
	size := s.sizes.Sample(s.rng)
	if size != s.lastSize {
		s.lastSize = size
		s.lastTx = sim.TransferTime(int64(size)*8, s.LineRate)
		// Idle gap so that mean cycle = txTime/load:
		// E[gap] = txTime*(1-load)/load.
		s.lastGap = float64(s.lastTx) * (1 - s.load) / s.load
	}
	txTime := s.lastTx

	start := s.nextStart
	switch s.kind {
	case Poisson:
		gap := sim.Time(s.rng.ExpFloat64() * s.lastGap)
		s.nextStart = start + txTime + gap
	case Bursty:
		if s.burstLeft == 0 {
			// Start a new burst: a Pareto-sized train of back-to-back
			// packets, followed by an off period sized so the long-run
			// load matches the target.
			n := int(s.rng.Pareto(s.burstShape, s.burstMin))
			if n < 1 {
				n = 1
			}
			s.burstLeft = n
			meanBurst := s.burstMin * s.burstShape / (s.burstShape - 1)
			offMean := meanBurst * float64(txTime) * (1 - s.load) / s.load
			s.pendingOff = sim.Time(s.rng.ExpFloat64() * offMean)
		}
		s.burstLeft--
		s.nextStart = start + txTime
		if s.burstLeft == 0 {
			s.nextStart += s.pendingOff
			s.pendingOff = 0
		}
	}

	out := s.rng.PickTotal(s.weights, s.load)
	var p *packet.Packet
	if s.alloc != nil {
		p = s.alloc.Get()
	} else {
		p = &packet.Packet{}
	}
	p.ID = s.idgen()
	p.Size = size
	p.Input = s.Input
	p.Output = out
	p.Arrival = start + txTime
	p.Seq = s.seq[out]
	s.seq[out]++
	if s.pool != nil {
		fl := s.flows[out]
		if fl == nil {
			fl = s.pool.pair(s.Input, out)
			s.flows[out] = fl
		}
		p.Flow = fl[s.pool.index(len(fl), s.rng)]
	}
	return p, p.Arrival
}

// GenerateWindow drains packets from the source up to the horizon and
// returns them in arrival order. A convenience for batch-mode
// experiments and tests.
func (s *Source) GenerateWindow(horizon sim.Time) []*packet.Packet {
	var out []*packet.Packet
	for {
		p, at := s.Next()
		if p == nil || at > horizon {
			return out
		}
		out = append(out, p)
	}
}
