package resilience

import (
	"math"
	"reflect"
	"testing"

	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/optics"
	"pbrouter/internal/sim"
	"pbrouter/internal/sps"
	"pbrouter/internal/traffic"
)

// testCampaign returns a small, fast SPS: 4 ribbons x 8 fibers over 4
// switches (α=2, 640 Gb/s ports) with single-stack HBM.
func testCampaign(load float64, horizon sim.Time) Campaign {
	spsCfg := sps.Config{
		N: 4, F: 8, H: 4,
		WDM:     optics.WDM{Wavelengths: 16, ChannelRate: 20 * sim.Gbps},
		Pattern: optics.PseudoRandom,
		Seed:    0x5e5,
	}
	swCfg := hbmswitch.Scaled(1, spsCfg.PortRate())
	swCfg.PFI.N = spsCfg.N
	swCfg.Speedup = 1.1
	swCfg.FlushTimeout = 100 * sim.Nanosecond
	return Campaign{
		SPS:      spsCfg,
		Switch:   swCfg,
		Load:     load,
		Kind:     traffic.Poisson,
		Sizes:    traffic.IMIX(),
		Horizon:  horizon,
		Seed:     21,
		Validate: true,
	}
}

// TestAvailabilityTracksSurvivingCapacity is the subsystem's
// acceptance criterion: with f of H switches failed under admissible
// near-saturating uniform load, steady goodput must sit within 5% of
// (H-f)/H of the healthy baseline, with no invariant violated.
func TestAvailabilityTracksSurvivingCapacity(t *testing.T) {
	const horizon = 40 * sim.Microsecond
	goodput := make(map[int]float64)
	for _, f := range []int{0, 1, 2} {
		c := testCampaign(0.98, horizon)
		failed := make([]int, f)
		for i := range failed {
			failed[i] = i
		}
		c.Faults = SwitchOutage(failed, 0, sim.Forever)
		rep, err := c.Run()
		if err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		if vs := rep.Violations(); len(vs) > 0 {
			t.Fatalf("f=%d violated invariants: %v", f, vs)
		}
		if len(rep.Epochs) != 1 {
			t.Fatalf("f=%d: %d epochs, want 1", f, len(rep.Epochs))
		}
		goodput[f] = rep.Epochs[0].GoodputGbps
	}
	for _, f := range []int{1, 2} {
		ideal := float64(4-f) / 4
		ratio := goodput[f] / goodput[0]
		if math.Abs(ratio-ideal) > 0.05*ideal {
			t.Errorf("f=%d: goodput ratio %.4f outside 5%% of ideal %.4f (goodput %v)",
				f, ratio, ideal, goodput)
		}
	}
}

// TestCampaignDeterministicAcrossWorkers is the -j regression: the
// full report — every epoch, the totals, the event log — must be
// identical for 1 and 8 workers.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *Report {
		c := testCampaign(0.9, 30*sim.Microsecond)
		c.Workers = workers
		c.Faults = []Fault{
			{Kind: SwitchFailure, Switch: 2, Fail: 8 * sim.Microsecond, Repair: 20 * sim.Microsecond},
			{Kind: ChannelFailure, Switch: 0, Index: 4, Fail: 12 * sim.Microsecond, Repair: sim.Forever},
			{Kind: FiberDimming, Ribbon: 1, Fiber: 3, Scale: 0.5, Fail: 0, Repair: 15 * sim.Microsecond},
		}
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
		t.Fatal("campaign report differs between -j 1 and -j 8")
	}
}

// TestFailRepairEpochsStayCorrect drives a fail/repair/fail sequence
// mixing every fault kind and requires zero invariant violations on
// every epoch, degraded or healthy.
func TestFailRepairEpochsStayCorrect(t *testing.T) {
	c := testCampaign(0.85, 36*sim.Microsecond)
	c.Faults = []Fault{
		{Kind: GroupFailure, Switch: 1, Index: 2, Fail: 9 * sim.Microsecond, Repair: 18 * sim.Microsecond},
		{Kind: ChannelFailure, Switch: 3, Index: 7, Fail: 18 * sim.Microsecond, Repair: 27 * sim.Microsecond},
		{Kind: SwitchFailure, Switch: 0, Fail: 27 * sim.Microsecond, Repair: sim.Forever},
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != 4 {
		t.Fatalf("%d epochs, want 4", len(rep.Epochs))
	}
	if vs := rep.Violations(); len(vs) > 0 {
		t.Fatalf("fail/repair campaign violated invariants: %v", vs)
	}
	// Epoch 0 is healthy; the switch-failure epoch has the lowest
	// capacity fraction.
	if !rep.Epochs[0].State.Healthy() {
		t.Fatal("epoch 0 not healthy")
	}
	if rep.Epochs[3].CapacityFraction >= rep.Epochs[0].CapacityFraction {
		t.Fatalf("switch-failure epoch capacity %g not below healthy %g",
			rep.Epochs[3].CapacityFraction, rep.Epochs[0].CapacityFraction)
	}
	if rep.Availability <= 0 || rep.Availability > 1 {
		t.Fatalf("availability %g out of range", rep.Availability)
	}
	// The event log carries each fault and the in-horizon repairs in
	// chronological order.
	ev := rep.Events.Events()
	if len(ev) != 5 { // 3 fails + 2 repairs (switch 0 never recovers)
		t.Fatalf("%d events, want 5: %+v", len(ev), ev)
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].At < ev[i-1].At {
			t.Fatal("events out of order")
		}
	}
}

// TestDimmedFibersReduceOfferedLoad checks the fiber-dimming policy:
// dimming scales the affected flows, so offered load drops while
// availability stays at 1 (survivor capacity is untouched).
func TestDimmedFibersReduceOfferedLoad(t *testing.T) {
	c := testCampaign(0.7, 24*sim.Microsecond)
	c.Faults = []Fault{
		{Kind: FiberDimming, Ribbon: 0, Fiber: 0, Scale: 0.5, Fail: 12 * sim.Microsecond, Repair: sim.Forever},
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != 2 {
		t.Fatalf("%d epochs, want 2", len(rep.Epochs))
	}
	healthy, dimmed := rep.Epochs[0], rep.Epochs[1]
	if dimmed.OfferedGbps >= healthy.OfferedGbps {
		t.Fatalf("dimmed epoch offers %g >= healthy %g", dimmed.OfferedGbps, healthy.OfferedGbps)
	}
	// One fiber of 32 at half scale: offered drops by 1/64.
	want := healthy.OfferedGbps * (1 - 1.0/64)
	if math.Abs(dimmed.OfferedGbps-want) > 1e-6*want {
		t.Fatalf("dimmed offered %g, want %g", dimmed.OfferedGbps, want)
	}
	if vs := rep.Violations(); len(vs) > 0 {
		t.Fatalf("dimming campaign violated invariants: %v", vs)
	}
	if dimmed.Availability < 0.97 {
		t.Fatalf("dimmed availability %g; load reduction must not cost goodput", dimmed.Availability)
	}
}

func TestCampaignRejectsBadParameters(t *testing.T) {
	c := testCampaign(0.9, 10*sim.Microsecond)
	c.Load = 1.5
	if _, err := c.Run(); err == nil {
		t.Error("load > 1 accepted")
	}
	c = testCampaign(0.9, 10*sim.Microsecond)
	c.Horizon = 0
	if _, err := c.Run(); err == nil {
		t.Error("zero horizon accepted")
	}
	c = testCampaign(0.9, 10*sim.Microsecond)
	c.Switch.PFI.N = 16
	if _, err := c.Run(); err == nil {
		t.Error("port-count mismatch accepted")
	}
	c = testCampaign(0.9, 10*sim.Microsecond)
	c.Epochs = -1
	if _, err := c.Run(); err == nil {
		t.Error("negative epoch count accepted")
	}
	// Five equal epochs over a 3 ps horizon: some epoch is empty and
	// would report zero goodput without an error.
	c = testCampaign(0.9, 3)
	c.Epochs = 5
	if err := c.Check(); err == nil {
		t.Error("zero-length epoch accepted")
	}
	c.Epochs = 3
	if err := c.Check(); err != nil {
		t.Errorf("three 1 ps epochs rejected: %v", err)
	}
}
