package baseline

import (
	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/stats"
)

// DefaultCrosspointBytes is the default per-crosspoint buffer. Sized
// like an on-chip SRAM crosspoint (tens of KB): ample for uniform
// Poisson traffic at high load, and exactly the kind of shallow
// buffering that heavy-tailed flow trains overrun — which is the
// comparison the arena is built to expose.
const DefaultCrosspointBytes = 64 * 1024

// CQSwitch is a crosspoint-queued (buffered-crossbar) switch in the
// FlexCross style: an N×N crossbar with a small dedicated FIFO at
// every (input, output) crosspoint. Arrivals never block — a packet
// lands in its crosspoint buffer immediately, or is dropped if the
// buffer is full (crosspoint SRAM cannot be pooled, unlike the HBM
// switch's shared stacks). Each output round-robins over its N
// crosspoint FIFOs at line rate, which gives the crossbar its clean
// distributed scheduling — no centralized arbiter, no speedup — at the
// price of N² small buffers that cannot absorb bursts beyond their
// own depth.
//
// The switch is event-free: outputs are independent work-conserving
// servers, so each output's schedule is advanced lazily to the current
// arrival time, packet by packet, in round-robin order.
type CQSwitch struct {
	n        int
	rate     sim.Rate
	capBytes int64

	// Per-output crossbar state, indexed out*n+in for the FIFOs.
	queues  [][]*packet.Packet // FIFO per crosspoint
	qBytes  []int64            // queued bytes per crosspoint
	nextRR  []int              // each output's round-robin pointer
	freeAt  []sim.Time         // each output's server-free time
	outOccu []int64            // queued bytes per output (all its crosspoints)

	horizon sim.Time // departures at or before this count as by-horizon

	// Instrumentation.
	Offered   stats.Counter
	Delivered stats.Counter
	Dropped   stats.Counter
	HighWater []int64 // per-output peak crosspoint backlog, bytes
	Latency   *stats.Histogram
	byHorizon stats.Counter
}

// NewCQSwitch builds an N×N crosspoint-queued crossbar with the given
// per-port rate and per-crosspoint buffer capacity in bytes
// (DefaultCrosspointBytes if capBytes <= 0). Call SetHorizon before
// feeding packets so delivered-by-horizon accounting is exact.
func NewCQSwitch(n int, rate sim.Rate, capBytes int64) *CQSwitch {
	if capBytes <= 0 {
		capBytes = DefaultCrosspointBytes
	}
	return &CQSwitch{
		n:         n,
		rate:      rate,
		capBytes:  capBytes,
		queues:    make([][]*packet.Packet, n*n),
		qBytes:    make([]int64, n*n),
		nextRR:    make([]int, n),
		freeAt:    make([]sim.Time, n),
		outOccu:   make([]int64, n),
		HighWater: make([]int64, n),
		Latency:   stats.NewLatencyHistogram(),
	}
}

// Arrive feeds one packet (nondecreasing arrival order). The output's
// server is first advanced to the packet's arrival time, then the
// packet is enqueued at its crosspoint — or dropped if the crosspoint
// is full.
func (s *CQSwitch) Arrive(p *packet.Packet) {
	s.Offered.Add(p.Size)
	out := int(p.Output)
	s.serveUntil(out, p.Arrival)
	xp := out*s.n + int(p.Input)
	if s.qBytes[xp]+int64(p.Size) > s.capBytes {
		s.Dropped.Add(p.Size)
		return
	}
	s.queues[xp] = append(s.queues[xp], p)
	s.qBytes[xp] += int64(p.Size)
	s.outOccu[out] += int64(p.Size)
	if s.outOccu[out] > s.HighWater[out] {
		s.HighWater[out] = s.outOccu[out]
	}
}

// serveUntil advances one output's round-robin server while its next
// service would start before t.
func (s *CQSwitch) serveUntil(out int, t sim.Time) {
	for s.freeAt[out] < t {
		p := s.dequeue(out)
		if p == nil {
			// Idle until the next arrival: the server is work-conserving,
			// so with nothing queued it simply waits.
			s.freeAt[out] = t
			return
		}
		start := s.freeAt[out]
		if p.Arrival > start {
			start = p.Arrival
		}
		s.depart(p, start+sim.TransferTime(int64(p.Size)*8, s.rate))
	}
}

// dequeue pops the next packet of an output's round-robin scan, or
// nil if all its crosspoints are empty.
func (s *CQSwitch) dequeue(out int) *packet.Packet {
	base := out * s.n
	for i := 0; i < s.n; i++ {
		in := (s.nextRR[out] + i) % s.n
		q := s.queues[base+in]
		if len(q) == 0 {
			continue
		}
		p := q[0]
		s.queues[base+in] = q[1:]
		s.qBytes[base+in] -= int64(p.Size)
		s.outOccu[out] -= int64(p.Size)
		s.nextRR[out] = (in + 1) % s.n
		return p
	}
	return nil
}

// SetHorizon marks the measurement horizon: departures at or before
// it count toward DeliveredByHorizon.
func (s *CQSwitch) SetHorizon(h sim.Time) { s.horizon = h }

// depart finalizes one packet's service.
func (s *CQSwitch) depart(p *packet.Packet, end sim.Time) {
	out := p.Output
	s.freeAt[out] = end
	p.Depart = end
	s.Delivered.Add(p.Size)
	if s.horizon == 0 || end <= s.horizon {
		s.byHorizon.Add(p.Size)
	}
	s.Latency.AddTime(p.Latency())
}

// Finish drains every queue (the post-horizon drain); packets that
// complete after the horizon still count as delivered but not as
// by-horizon.
func (s *CQSwitch) Finish() {
	for out := 0; out < s.n; out++ {
		for {
			p := s.dequeue(out)
			if p == nil {
				break
			}
			start := s.freeAt[out]
			if p.Arrival > start {
				start = p.Arrival
			}
			s.depart(p, start+sim.TransferTime(int64(p.Size)*8, s.rate))
		}
	}
}

// DeliveredByHorizon returns the bytes that had departed by the
// horizon set with SetHorizon.
func (s *CQSwitch) DeliveredByHorizon() int64 { return s.byHorizon.Bytes }

// MaxHighWater returns the largest per-output crosspoint backlog seen.
func (s *CQSwitch) MaxHighWater() int64 {
	var m int64
	for _, h := range s.HighWater {
		if h > m {
			m = h
		}
	}
	return m
}
