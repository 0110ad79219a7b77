package baseline

import (
	"pbrouter/internal/hbm"
	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
)

// SpraySwitch models the statistical shared-memory alternative of
// §3.1: each packet is written to a uniformly random HBM channel,
// paying the worst-case random access cost (activate + transfer +
// precharge, with full timing rules), and the output must resequence
// packets that overtake each other on faster channels. It quantifies
// the two costs SPS+PFI avoid: the random-access throughput loss and
// the reordering buffer (§4 "SRAM sizing": "an order of magnitude
// higher" than the frame-assembly SRAM).
type SpraySwitch struct {
	geo hbm.Geometry
	tim hbm.Timing
	rng *sim.RNG

	chanBusy []sim.Time
	resequencer
}

// NewSpraySwitch returns a spraying switch over the given memory
// organization.
func NewSpraySwitch(geo hbm.Geometry, tim hbm.Timing, rng *sim.RNG) *SpraySwitch {
	return &SpraySwitch{
		geo:         geo,
		tim:         tim,
		rng:         rng,
		chanBusy:    make([]sim.Time, geo.Channels()),
		resequencer: newResequencer(),
	}
}

// Arrive sprays one packet onto a random channel and returns the time
// its memory access completes. Packets must be fed in arrival order.
func (s *SpraySwitch) Arrive(p *packet.Packet) sim.Time { return s.complete(p, s.depart(p)) }

// depart picks p's channel and returns when its access completes.
func (s *SpraySwitch) depart(p *packet.Packet) sim.Time {
	ch := s.rng.Intn(len(s.chanBusy))
	tx := sim.TransferTime(int64(p.Size)*8, s.geo.ChannelRate())
	cost := s.tim.TRCD + tx + s.tim.TRP
	start := p.Arrival
	if s.chanBusy[ch] > start {
		start = s.chanBusy[ch]
	}
	done := start + cost
	s.chanBusy[ch] = done
	return done
}
