package baseline

import (
	"sort"

	"pbrouter/internal/hbm"
	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/stats"
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

// resequencer is the output side of the designs that let packets
// overtake each other (spray and PPS): it records every packet's
// completion and, at Finish, replays them in time order through the
// reorder tracker to size the output resequencing buffer.
type resequencer struct {
	inflight []sprayed

	Tracker   *stats.ReorderTracker
	Delivered stats.Counter
}

type sprayed struct {
	done sim.Time
	p    *packet.Packet
}

func newResequencer() resequencer { return resequencer{Tracker: stats.NewReorderTracker()} }

// complete records that p leaves the fabric at done and returns done.
func (r *resequencer) complete(p *packet.Packet, done sim.Time) sim.Time {
	r.inflight = append(r.inflight, sprayed{done: done, p: p})
	return done
}

// Finish resequences everything: it replays completions in time order
// through the reorder tracker and returns the achieved aggregate
// delivered rate.
func (r *resequencer) Finish() sim.Rate {
	if len(r.inflight) == 0 {
		return 0
	}
	sort.SliceStable(r.inflight, func(i, j int) bool {
		return r.inflight[i].done < r.inflight[j].done
	})
	for _, e := range r.inflight {
		pair := uint64(e.p.Input)<<32 | uint64(uint32(e.p.Output))
		r.Tracker.Observe(pair, e.p.Seq, e.p.Size)
		r.Delivered.Add(e.p.Size)
	}
	return sim.RateOf(r.Delivered.Bits(), r.inflight[len(r.inflight)-1].done)
}

// PeakReorderBufferBytes returns the resequencing buffer high-water
// the outputs needed.
func (r *resequencer) PeakReorderBufferBytes() int64 { return r.Tracker.PeakBufferBytes() }

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
func (s *SpraySwitch) Arrive(p *packet.Packet) sim.Time {
	ch := s.rng.Intn(len(s.chanBusy))
	tx := sim.TransferTime(int64(p.Size)*8, s.geo.ChannelRate())
	cost := s.tim.TRCD + tx + s.tim.TRP
	start := p.Arrival
	if s.chanBusy[ch] > start {
		start = s.chanBusy[ch]
	}
	done := start + cost
	s.chanBusy[ch] = done
	return s.complete(p, done)
}
