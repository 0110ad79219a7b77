package splitpolicy

import (
	"reflect"
	"strings"
	"testing"

	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/optics"
	"pbrouter/internal/resilience"
	"pbrouter/internal/sim"
	"pbrouter/internal/sps"
	"pbrouter/internal/traffic"
)

// testCampaign returns the small, fast SPS the resilience tests use: 4
// ribbons x 8 fibers over 4 switches (α=2) with single-stack HBM,
// sliced into equal rehash epochs under the named policy.
func testCampaign(t *testing.T, policy string, load float64, horizon sim.Time, epochs int) resilience.Campaign {
	t.Helper()
	p, err := NewPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
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
	return resilience.Campaign{
		SPS:      spsCfg,
		Switch:   swCfg,
		Policy:   p,
		Load:     load,
		Kind:     traffic.Poisson,
		Sizes:    traffic.IMIX(),
		Horizon:  horizon,
		Epochs:   epochs,
		Seed:     21,
		Validate: true,
	}
}

// churnFaults is a 12 µs schedule whose every fail and repair falls on
// a 4 µs boundary, so the constant-health epochs coincide with three
// equal rehash epochs: a forced switch outage, a channel loss, a
// bank-group loss and a fiber dim, overlapping in different epochs.
func churnFaults() []resilience.Fault {
	return []resilience.Fault{
		{Kind: resilience.SwitchFailure, Switch: 1, Fail: 4 * sim.Microsecond, Repair: 8 * sim.Microsecond},
		{Kind: resilience.ChannelFailure, Switch: 0, Index: 3, Fail: 0, Repair: 8 * sim.Microsecond},
		{Kind: resilience.GroupFailure, Switch: 2, Index: 1, Fail: 8 * sim.Microsecond, Repair: sim.Forever},
		{Kind: resilience.FiberDimming, Ribbon: 1, Fiber: 2, Scale: 0.5, Fail: 4 * sim.Microsecond, Repair: sim.Forever},
	}
}

// TestStaticMatchesResilienceEngine is the baseline pin: the static
// splitter sliced into three equal epochs must reproduce, bit for bit
// and epoch by epoch, the same campaign cut at every fault and repair
// — same bounds, offered load, goodput and violations — because both
// epoch rules run the same Degrade call, per-switch seeds and traffic.
func TestStaticMatchesResilienceEngine(t *testing.T) {
	c := testCampaign(t, PolicyStatic, 0.9, 12*sim.Microsecond, 3)
	c.Faults = churnFaults()
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref := c
	ref.Epochs = 0
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Epochs) != 3 || len(want.Epochs) != 3 {
		t.Fatalf("got %d equal and %d constant-health epochs, want 3 each", len(rep.Epochs), len(want.Epochs))
	}
	for e := range want.Epochs {
		got, exp := rep.Epochs[e], want.Epochs[e]
		if got.Start != exp.Start || got.End != exp.End {
			t.Errorf("epoch %d spans [%v,%v), constant-health [%v,%v)", e, got.Start, got.End, exp.Start, exp.End)
		}
		if got.OfferedGbps != exp.OfferedGbps || got.GoodputGbps != exp.GoodputGbps {
			t.Errorf("epoch %d offered/goodput %v/%v != constant-health %v/%v — the epoch rules diverge",
				e, got.OfferedGbps, got.GoodputGbps, exp.OfferedGbps, exp.GoodputGbps)
		}
		if !reflect.DeepEqual(got.Violations, exp.Violations) {
			t.Errorf("epoch %d violations %v != constant-health %v", e, got.Violations, exp.Violations)
		}
	}
	if vs := rep.Violations(); len(vs) > 0 {
		t.Fatalf("static campaign violated invariants: %v", vs)
	}
}

// TestStaticMatchesResilienceUnderOutage: the pin must also hold for a
// single equal epoch with a switch down for the whole horizon — one
// constant-health epoch, the same Degrade call at the same seed.
func TestStaticMatchesResilienceUnderOutage(t *testing.T) {
	c := testCampaign(t, PolicyStatic, 0.9, 12*sim.Microsecond, 1)
	c.Faults = resilience.SwitchOutage([]int{1}, 0, sim.Forever)
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	ref := c
	ref.Epochs = 0
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, exp := rep.Epochs[0].GoodputGbps, want.Epochs[0].GoodputGbps; got != exp {
		t.Fatalf("degraded equal-epoch goodput %v != constant-health %v", got, exp)
	}
}

// TestAdaptiveInvariantsAcrossRehashEpochs: every adaptive policy must
// run a multi-epoch campaign — rehashing at each boundary — with zero
// FIFO/conservation violations and structurally valid assignments
// (Reassign rejects invalid tables, so Run erroring would catch that).
func TestAdaptiveInvariantsAcrossRehashEpochs(t *testing.T) {
	for _, name := range []string{PolicyLeastLoaded, PolicyP2C, PolicyAdaptive} {
		c := testCampaign(t, name, 0.9, 12*sim.Microsecond, 3)
		rep, err := c.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Epochs) != 3 {
			t.Fatalf("%s: got %d epochs, want 3", name, len(rep.Epochs))
		}
		if vs := rep.Violations(); len(vs) > 0 {
			t.Fatalf("%s: rehash epochs violated invariants: %v", name, vs)
		}
	}
}

// TestAdaptiveInvariantsUnderChurn: rehashing while switches fail and
// repair mid-campaign — assignments must track the alive mask and the
// invariants must hold in every epoch.
func TestAdaptiveInvariantsUnderChurn(t *testing.T) {
	c := testCampaign(t, PolicyAdaptive, 0.8, 12*sim.Microsecond, 3)
	c.Faults = []resilience.Fault{
		{Kind: resilience.SwitchFailure, Switch: 2, Fail: 3 * sim.Microsecond, Repair: 9 * sim.Microsecond},
	}
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if vs := rep.Violations(); len(vs) > 0 {
		t.Fatalf("churn campaign violated invariants: %v", vs)
	}
}

// TestAdaptiveBeatsStaticOnAdversarial is the subsystem's acceptance
// criterion: under the adversarial concentration workload (α hot
// fibers per ribbon, everything else dark) a load-aware policy must
// beat the paper's static pseudo-random assignment on max-over-mean
// switch load.
func TestAdaptiveBeatsStaticOnAdversarial(t *testing.T) {
	mom := make(map[string]float64)
	for _, name := range []string{PolicyStatic, PolicyLeastLoaded, PolicyAdaptive} {
		c := testCampaign(t, name, 0.9, 12*sim.Microsecond, 2)
		c.Flows = sps.Adversarial(c.SPS, c.Seed)
		for i := range c.Flows {
			c.Flows[i].Rate *= 0.9
		}
		rep, err := c.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mom[name] = rep.OfferedMaxOverMean
	}
	if mom[PolicyLeastLoaded] >= mom[PolicyStatic] {
		t.Fatalf("leastloaded MoM %v does not beat static %v on adversarial concentration",
			mom[PolicyLeastLoaded], mom[PolicyStatic])
	}
	// The greedy policy can spread α hot fibers per ribbon perfectly.
	if mom[PolicyLeastLoaded] > 1.0001 {
		t.Fatalf("leastloaded MoM %v should be ~1.0 on the adversarial pattern", mom[PolicyLeastLoaded])
	}
}

// TestCampaignWorkerByteIdentity: the per-switch seeds depend only on
// (epoch, switch), so the report must not change with the worker
// count.
func TestCampaignWorkerByteIdentity(t *testing.T) {
	reps := make([]*resilience.Report, 2)
	for i, workers := range []int{1, 7} {
		c := testCampaign(t, PolicyAdaptive, 0.9, 8*sim.Microsecond, 2)
		c.Workers = workers
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Fatal("campaign report differs between -j 1 and -j 7")
	}
}

// recorder wraps a policy and keeps every sense the engine hands it.
type recorder struct {
	resilience.Policy
	rehash, observe []resilience.Sense
}

func (r *recorder) Rehash(sp *optics.Splitter, s resilience.Sense, rng *sim.RNG) [][]int {
	r.rehash = append(r.rehash, s)
	return r.Policy.Rehash(sp, s, rng)
}

func (r *recorder) Observe(s resilience.Sense) {
	r.observe = append(r.observe, s)
	r.Policy.Observe(s)
}

// TestPredictedLoadEWMA pins the Sense forecast the engine maintains:
// nothing before the first epoch, the first measured load verbatim,
// then each epoch folded in at alpha 0.5; each epoch's forecast is
// handed to the next rehash, and no sense aliases another's slices.
func TestPredictedLoadEWMA(t *testing.T) {
	c := testCampaign(t, PolicyLeastLoaded, 0.9, 12*sim.Microsecond, 3)
	c.Faults = churnFaults() // switch 1 dies in epoch 1: the loads move
	rec := &recorder{Policy: c.Policy}
	c.Policy = rec
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.rehash) != 3 || len(rec.observe) != 3 {
		t.Fatalf("policy saw %d rehash and %d observe calls, want 3 each", len(rec.rehash), len(rec.observe))
	}
	if first := rec.rehash[0]; first.PredictedLoad != nil || first.SwitchLoad != nil {
		t.Fatalf("epoch 0 sense carries a forecast %v / load %v before anything ran", first.PredictedLoad, first.SwitchLoad)
	}
	obs := rec.observe
	if !reflect.DeepEqual(obs[0].PredictedLoad, obs[0].SwitchLoad) {
		t.Fatalf("first forecast %v, want the first load %v verbatim", obs[0].PredictedLoad, obs[0].SwitchLoad)
	}
	for e := 1; e < 3; e++ {
		for sw, l := range obs[e].SwitchLoad {
			if want := 0.5*l + 0.5*obs[e-1].PredictedLoad[sw]; obs[e].PredictedLoad[sw] != want {
				t.Fatalf("epoch %d switch %d forecast %v, want %v", e, sw, obs[e].PredictedLoad[sw], want)
			}
		}
		if !reflect.DeepEqual(rec.rehash[e].PredictedLoad, obs[e-1].PredictedLoad) {
			t.Fatalf("epoch %d rehash saw forecast %v, epoch %d ended with %v", e, rec.rehash[e].PredictedLoad, e-1, obs[e-1].PredictedLoad)
		}
		if &obs[e].PredictedLoad[0] == &obs[e-1].PredictedLoad[0] || &obs[e].PredictedLoad[0] == &obs[e].SwitchLoad[0] {
			t.Fatal("forecast aliases another slice")
		}
	}
	if obs[1].SwitchLoad[1] != 0 || obs[0].SwitchLoad[1] == 0 {
		t.Fatalf("switch 1 loads %v then %v; the schedule should kill it in epoch 1", obs[0].SwitchLoad[1], obs[1].SwitchLoad[1])
	}
}

// TestStaticByteIdentityWithPrediction: a multi-epoch static campaign
// exercises the forecast at every boundary, and its report must stay
// identical run to run with zero rehashes — the forecast is maintained
// without random draws, so it cannot perturb the paper-baseline path.
func TestStaticByteIdentityWithPrediction(t *testing.T) {
	reps := make([]*resilience.Report, 2)
	for i := range reps {
		c := testCampaign(t, PolicyStatic, 0.9, 12*sim.Microsecond, 3)
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rehashes != 0 || rep.MovedFibers != 0 {
			t.Fatalf("static campaign rehashed with prediction on: %d rehashes, %d moved fibers",
				rep.Rehashes, rep.MovedFibers)
		}
		reps[i] = rep
	}
	if !reflect.DeepEqual(reps[0], reps[1]) {
		t.Fatal("static multi-epoch report is not run-to-run identical")
	}
}

// TestSeriesColumns: the telemetry trajectory must carry the
// split.policy.* probes with one row per epoch.
func TestSeriesColumns(t *testing.T) {
	c := testCampaign(t, PolicyLeastLoaded, 0.9, 8*sim.Microsecond, 2)
	rep, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	series := rep.PolicySeries()
	if len(series.Rows) != 2 {
		t.Fatalf("series has %d rows, want 2", len(series.Rows))
	}
	for _, name := range series.Names {
		if !strings.HasPrefix(name, "split.policy.") {
			t.Fatalf("series column %q missing the split.policy. prefix", name)
		}
	}
}

// TestCampaignChecks: bad configurations must be rejected up front.
func TestCampaignChecks(t *testing.T) {
	if _, err := NewPolicy("nosuch"); err == nil {
		t.Fatal("unknown policy accepted")
	}
	c := testCampaign(t, PolicyStatic, 0.9, 0, 2)
	if _, err := c.Run(); err == nil {
		t.Fatal("zero horizon accepted")
	}
	c = testCampaign(t, PolicyStatic, 0.9, 8*sim.Microsecond, -1)
	if _, err := c.Run(); err == nil {
		t.Fatal("negative epochs accepted")
	}
	c = testCampaign(t, PolicyStatic, 0.9, 3, 5)
	if _, err := c.Run(); err == nil {
		t.Fatal("zero-length epochs accepted")
	}
	// Rejected by arithmetic, before any per-epoch slice is built.
	c = testCampaign(t, PolicyStatic, 0.9, 8*sim.Microsecond, 1e12)
	if err := c.Check(); err == nil {
		t.Fatal("more epochs than picoseconds accepted")
	}
	c = testCampaign(t, PolicyStatic, 1.5, 8*sim.Microsecond, 1)
	if _, err := c.Run(); err == nil {
		t.Fatal("load above 1 accepted")
	}
}
