package baseline

import (
	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
)

// PPS models §2.1 Design 3: a three-stage load-balanced /
// parallel-packet-switch architecture. Each input sprays packets
// packet-by-packet (round-robin) across H middle switches, each an
// ideal OQ switch running at (speedup/H) of the external port rate;
// outputs must resequence. The model measures the two §2.1 Challenge 3
// costs that SPS avoids: the output reordering buffer and the three
// OEO conversion stages (each packet crosses input stage, middle
// switch, and output stage electronics).
type PPS struct {
	middles []*OQSwitch
	rr      []int // per-input round-robin pointer
	resequencer
}

// OEOStages is the number of optical-electrical boundary pairs a
// packet crosses in a three-stage architecture (§2.1 Challenge 3:
// "three OEO conversion stages"), versus 1 for SPS.
const OEOStages = 3

// NewPPS builds a three-stage switch with H middle planes at the
// given internal speedup (1.0 means the aggregate middle capacity
// exactly matches the external capacity).
func NewPPS(n, h int, rate sim.Rate, speedup float64) *PPS {
	p := &PPS{
		rr:          make([]int, n),
		resequencer: newResequencer(),
	}
	midRate := sim.Rate(float64(rate) * speedup / float64(h))
	for i := 0; i < h; i++ {
		p.middles = append(p.middles, NewOQSwitch(n, midRate))
	}
	return p
}

// Arrive load-balances one packet to a middle switch and returns when
// that middle switch delivers it to the output stage. Packets must be
// fed in arrival order.
func (p *PPS) Arrive(pk *packet.Packet) sim.Time { return p.complete(pk, p.depart(pk)) }

// depart picks pk's middle switch and returns when it delivers pk.
func (p *PPS) depart(pk *packet.Packet) sim.Time {
	m := p.rr[pk.Input]
	p.rr[pk.Input] = (m + 1) % len(p.middles)
	return p.middles[m].Arrive(pk)
}
