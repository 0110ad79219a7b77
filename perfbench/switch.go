package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
)

// switchWL is one reference HBM switch (§3) under uniform Poisson load
// with fixed-size packets: switch_64b with 64 B packets, where per-
// packet work dominates, and switch_jumbo with 9000 B packets, where
// per-batch and per-frame work dominates.
type switchWL struct {
	cfg     hbmswitch.Config
	seed    uint64
	size    int
	horizon sim.Time
	clockNs float64 // clockCost, for the traced stream
}

// Switch workload sizes: each round simulates horizon, of which the
// first third is the switch's own warm-up (Report excludes it from
// steady-state throughput) and is timed as set-up.
const (
	switchLoad    = 0.9
	horizon64B    = 20 * sim.Microsecond
	horizonJumbo  = 1000 * sim.Microsecond
	switchSpeedup = 1.1
)

func newSwitch(seed uint64, size int) *switchWL {
	cfg := hbmswitch.Reference()
	cfg.Speedup = switchSpeedup
	h := horizon64B
	if size > 1500 {
		h = horizonJumbo
	}
	return &switchWL{cfg: cfg, seed: seed, size: size, horizon: h, clockNs: clockCost()}
}

// sampleEvery is how many Next calls the traced stream makes per timed
// call. Timing every call made the traffic layer on switch_64b read
// about twice its share of the CPU profile, since a 64 B packet's Next
// costs only a few clock reads; timing one call in 64 and scaling up
// leaves the clock reads a small fraction of the layer's time.
const sampleEvery = 64

// timedStream times one Next call in sampleEvery of the arrival stream
// handed to the switch, and counts them all. It forwards Recycle and
// PoolStats so the switch recycles packets and reports pool counters
// exactly as it does with the bare traffic.Mux.
type timedStream struct {
	mux     *traffic.Mux
	calls   int64
	sampled int64   // calls that were timed
	ns      int64   // their total time, clock reads included
	clockNs float64 // clockCost, measured once per run
}

func (t *timedStream) Next() (*packet.Packet, sim.Time) {
	t.calls++
	if t.calls%sampleEvery != 0 {
		return t.mux.Next()
	}
	// The first clock read only brings the clock's data into cache, so
	// that the timed interval carries the clock cost clockCost measures.
	_ = time.Now()
	t0 := time.Now()
	p, at := t.mux.Next()
	t.ns += int64(time.Since(t0))
	t.sampled++
	return p, at
}

func (t *timedStream) Recycle(p *packet.Packet)    { t.mux.Recycle(p) }
func (t *timedStream) PoolStats() packet.PoolStats { return t.mux.PoolStats() }

// seconds estimates the time all calls so far spent in the stream: the
// timed calls' mean, less the clock's own cost, times every call.
func (t *timedStream) seconds() float64 {
	if t.sampled == 0 {
		return 0
	}
	per := float64(t.ns)/float64(t.sampled) - t.clockNs
	return max(per, 0) * float64(t.calls) / 1e9
}

func (t *timedStream) reset() { t.calls, t.sampled, t.ns = 0, 0, 0 }

// clockCost returns what an empty timed interval reads, the cost the
// clock reads add to every timed call: the median over batches, so a
// batch that the scheduler or a page fault interrupted does not count.
func clockCost() float64 {
	const batches, n = 101, 256
	means := make([]float64, batches)
	for b := range means {
		var total time.Duration
		for i := 0; i < n; i++ {
			_ = time.Now()
			t0 := time.Now()
			total += time.Since(t0)
		}
		means[b] = float64(total) / n
	}
	return median(means)
}

// advanceMeasured and finishMeasured run the measured phase. They are
// their own frames, never inlined, so the traced run's CPU profile can
// tell the measured phase from the warm-up (see profileGap).
//
//go:noinline
func advanceMeasured(sw *hbmswitch.Switch, to sim.Time) { sw.AdvanceTo(to) }

//go:noinline
func finishMeasured(sw *hbmswitch.Switch) (*hbmswitch.Report, error) { return sw.Finish() }

func (w *switchWL) round(traced bool) (round, error) {
	var ms0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	t0 := time.Now()
	sw, err := hbmswitch.New(w.cfg)
	if err != nil {
		return round{}, err
	}
	n := w.cfg.PFI.N
	mux := traffic.NewMux(traffic.UniformSources(traffic.Uniform(n, switchLoad),
		w.cfg.PortRate, traffic.Poisson, traffic.Fixed(w.size), sim.NewRNG(w.seed)))
	var stream traffic.Stream = mux
	ts := &timedStream{mux: mux, clockNs: w.clockNs}
	if traced {
		stream = ts
	}
	sw.Start(stream, w.horizon)
	sw.AdvanceTo(w.horizon / 3)
	setup := time.Since(t0).Seconds()

	// Measured phase: the rest of the horizon, then the drain.
	core0 := sw.CoreStats()
	ts.reset()
	t1 := time.Now()
	advanceMeasured(sw, w.horizon)
	advance := time.Since(t1).Seconds()
	advTraffic, advCalls := ts.seconds(), ts.calls
	ts.reset()
	t2 := time.Now()
	rep, runErr := finishMeasured(sw)
	t3 := time.Now()
	finish := t3.Sub(t2).Seconds()
	finTraffic := ts.seconds()
	calls := advCalls + ts.calls
	wall := t3.Sub(t1).Seconds()
	core1 := sw.CoreStats()

	r := round{
		setup:   setup,
		wall:    wall,
		jobs:    []float64{setup + wall},
		packets: rep.DeliveredPackets,
		mppsSec: setup + wall,
		checked: 1,
	}
	if runErr != nil {
		r.failed = append(r.failed, fmt.Sprintf("switch run: %v", runErr))
	}
	for _, e := range rep.Errors {
		r.failed = append(r.failed, fmt.Sprintf("switch report: %v", e))
	}
	if rep.OfferedPackets != rep.DeliveredPackets+rep.DroppedPackets ||
		rep.OfferedBytes != rep.DeliveredBytes+rep.DroppedBytes {
		r.failed = append(r.failed, fmt.Sprintf("conservation: offered %d pkts/%d B, delivered %d/%d, dropped %d/%d",
			rep.OfferedPackets, rep.OfferedBytes, rep.DeliveredPackets, rep.DeliveredBytes,
			rep.DroppedPackets, rep.DroppedBytes))
	}
	if rep.DeliveredPackets == 0 {
		r.failed = append(r.failed, "switch delivered no packets")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return round{}, err
	}
	sum := sha256.Sum256(buf.Bytes())
	r.digest = hex.EncodeToString(sum[:8])

	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		events := core1.Sched.Events - core0.Sched.Events
		self := advance - advTraffic + finish - finTraffic
		pool := core1.Packet
		// traffic.self_s + hbmswitch.advance_self_s + hbmswitch.finish_s
		// partition the two measured calls by construction; profileGap
		// checks the partition against the CPU profile.
		r.explained = advance + finish
		r.layers = map[string]float64{
			"traffic.next_calls":       float64(calls),
			"traffic.ns_per_next":      (advTraffic + finTraffic) * 1e9 / float64(max(calls, 1)),
			"traffic.self_s":           advTraffic + finTraffic,
			"hbmswitch.advance_self_s": advance - advTraffic,
			"hbmswitch.finish_s":       finish - finTraffic,
			"sim.events":               float64(core1.Sched.Events),
			"sim.events_per_pkt":       float64(core1.Sched.Events) / float64(rep.DeliveredPackets),
			"sim.cascade_events":       float64(core1.Sched.CascadeEvents),
			"sim.ns_per_event":         self * 1e9 / float64(max(events, 1)),
			"packet.pool_hit_ratio":    float64(pool.Hits) / float64(max(pool.Gets, 1)),
			"packet.allocs_per_pkt":    float64(ms1.Mallocs-ms0.Mallocs) / float64(rep.DeliveredPackets),
			"hbm.frames_written":       float64(rep.FramesWritten),
			"hbm.frames_read":          float64(rep.FramesRead),
			"hbm.frames_bypassed":      float64(rep.FramesBypassed),
		}
	}
	return r, nil
}

// profileGap reconciles the traced rounds' timers with the CPU profile
// of the same rounds, two measurements taken independently: each
// layer's share of the measured phase — traffic (the stream's Next),
// switch self time in AdvanceTo, switch self time in Finish — by the
// timers and by the profile's samples under advanceMeasured and
// finishMeasured. It returns the largest difference between the two
// shares of one layer.
func (w *switchWL) profileGap(rs []round, samples []sample) float64 {
	var timer [3]float64
	for _, r := range rs {
		timer[0] += r.layers["traffic.self_s"]
		timer[1] += r.layers["hbmswitch.advance_self_s"]
		timer[2] += r.layers["hbmswitch.finish_s"]
	}
	var prof [3]float64
	for _, s := range samples {
		var adv, fin, next bool
		for _, f := range s.funcs {
			switch f {
			case "main.advanceMeasured":
				adv = true
			case "main.finishMeasured":
				fin = true
			case "main.(*timedStream).Next":
				next = true
			}
		}
		switch {
		case next && (adv || fin):
			prof[0] += s.value
		case adv:
			prof[1] += s.value
		case fin:
			prof[2] += s.value
		}
	}
	tt := timer[0] + timer[1] + timer[2]
	pt := prof[0] + prof[1] + prof[2]
	if tt == 0 || pt == 0 {
		return 1
	}
	gap := 0.0
	for i := range timer {
		gap = max(gap, math.Abs(timer[i]/tt-prof[i]/pt))
	}
	return gap
}
