package resilience

import (
	"context"
	"fmt"

	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/optics"
	"pbrouter/internal/parallel"
	"pbrouter/internal/sim"
	"pbrouter/internal/sps"
	"pbrouter/internal/telemetry"
	"pbrouter/internal/traffic"
	"pbrouter/internal/validate"
)

// Campaign is one epoch-sliced SPS experiment: a deployment, a
// per-switch configuration, a fault schedule, a traffic pattern and a
// splitter policy, simulated epoch by epoch. Epochs run in order (a
// policy's sense at epoch e depends on epoch e-1's measurements); the
// per-switch simulations inside an epoch run in parallel with seeds
// derived only from (epoch, switch), so reports are byte-identical
// across worker counts.
type Campaign struct {
	SPS    sps.Config
	Switch hbmswitch.Config
	Faults []Fault
	// Flows are the offered flows; nil generates uniform fiber flows at
	// Load with the campaign seed.
	Flows []sps.Flow
	Load  float64
	Kind  traffic.ArrivalKind
	// Sizes is the packet-size mix; nil means IMIX.
	Sizes traffic.SizeDist
	// Horizon bounds the campaign in simulated time.
	Horizon sim.Time
	// Epochs slices the horizon. 0 cuts it at every fault and repair,
	// one epoch per constant-health interval; n >= 1 cuts it into n
	// equal rehash epochs with health sampled at each epoch start.
	Epochs int
	// Policy may re-hash the fiber→switch assignment at every epoch
	// start. nil is the paper's static splitter: the seeded assignment,
	// degraded at the deployment seed while switches are down.
	Policy Policy
	Seed   uint64
	// Workers caps the per-epoch switch-simulation parallelism; <= 0
	// uses one worker per CPU. The report is identical for every value.
	Workers int
	// Validate attaches the structural probe to every run and the
	// OQ-mimicry shadow to healthy switches, collecting invariant
	// violations per epoch.
	Validate bool
	// Ctx, when non-nil, cancels the campaign between epochs and
	// between per-switch jobs. Cancellation never yields a partial
	// report.
	Ctx context.Context
}

// Sense is what a policy sees at an epoch start: the coming epoch's
// offered fiber loads (known — the splitter is upstream of the
// switches, an operator measures per-fiber optical power), the
// previous epoch's measured per-switch outcome, and the health state.
type Sense struct {
	Epoch int
	// FiberLoad[ribbon][fiber] is the coming epoch's offered load in
	// fiber-capacity units (dimming already applied).
	FiberLoad [][]float64
	// SwitchLoad is the previous epoch's offered load per switch as a
	// fraction of switch capacity; nil before the first epoch ran.
	SwitchLoad []float64
	// DeliveredBytes and QueuePeak are the previous epoch's hbmswitch
	// occupancy measurements per switch (delivered bytes; tail-SRAM
	// high water in bytes); nil before the first epoch ran.
	DeliveredBytes []int64
	QueuePeak      []int64
	// PredictedLoad is the engine's one-step forecast of per-switch
	// load: an EWMA over every previous epoch's SwitchLoad. Policies
	// that act on it react to the trend rather than the last sample;
	// nil before the first epoch ran. Maintained without random draws,
	// so ignoring it keeps a policy's RNG stream untouched.
	PredictedLoad []float64
	// Alive marks the surviving switches for the coming epoch.
	Alive []bool
}

// Policy decides the fiber→switch assignment for each epoch.
// Implementations are not goroutine-safe; the engine serializes all
// calls (only the per-switch simulations inside an epoch run in
// parallel).
type Policy interface {
	// Name returns the canonical policy name.
	Name() string
	// Rehash returns the next epoch's assignment table, or nil for the
	// static splitter. The engine installs non-nil tables via
	// optics.Splitter.Reassign.
	Rehash(sp *optics.Splitter, sense Sense, rng *sim.RNG) [][]int
	// Observe feeds the epoch's measured outcome back after it ran;
	// adaptive policies learn from it, the rest ignore it.
	Observe(sense Sense)
}

// ctx normalizes Campaign.Ctx.
func (c *Campaign) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// Check validates the campaign parameters, including that no epoch is
// empty (more equal epochs than picoseconds in the horizon).
func (c *Campaign) Check() error {
	if err := c.SPS.Validate(); err != nil {
		return err
	}
	if c.Switch.PFI.N != c.SPS.N {
		return fmt.Errorf("resilience: switch has %d ports, SPS has %d ribbons",
			c.Switch.PFI.N, c.SPS.N)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("resilience: horizon must be positive, got %v", c.Horizon)
	}
	if c.Epochs < 0 {
		return fmt.Errorf("resilience: epochs must be non-negative, got %d", c.Epochs)
	}
	// Equal slices floor(H(e+1)/n)-floor(He/n) are all at least 1 ps
	// exactly when n <= H.
	if sim.Time(c.Epochs) > c.Horizon {
		return fmt.Errorf("resilience: %d epochs over a %v horizon leave some epoch empty",
			c.Epochs, c.Horizon)
	}
	if c.Flows == nil && (c.Load <= 0 || c.Load > 1) {
		return fmt.Errorf("resilience: load must be in (0,1], got %v", c.Load)
	}
	return nil
}

// epochs slices the horizon by the Epochs rule.
func (c *Campaign) epochs() []Epoch {
	if c.Epochs == 0 {
		return Epochs(c.Faults, c.Horizon)
	}
	eps := make([]Epoch, c.Epochs)
	n := sim.Time(c.Epochs)
	for e := range eps {
		eps[e] = Epoch{Start: c.Horizon * sim.Time(e) / n, End: c.Horizon * sim.Time(e+1) / n}
	}
	return eps
}

// EpochResult is the measured outcome of one epoch.
type EpochResult struct {
	Start, End sim.Time
	State      State
	// CapacityFraction is the surviving fraction of nominal package
	// bandwidth (dead switches gone entirely, surviving switches scaled
	// by their live-channel fraction).
	CapacityFraction float64
	// Rehashed reports whether the assignment changed this epoch;
	// MovedFibers counts the (ribbon, fiber) entries that changed
	// switch relative to the previous epoch.
	Rehashed    bool
	MovedFibers int
	// SwitchLoad is the per-switch offered load (fiber-capacity units)
	// under the epoch's assignment.
	SwitchLoad []float64
	// OfferedMaxOverMean is the splitter-level imbalance: max/mean of
	// SwitchLoad over the live switches; DeliveredMaxOverMean is the
	// same ratio over measured delivered bytes.
	OfferedMaxOverMean   float64
	DeliveredMaxOverMean float64
	// OfferedGbps and GoodputGbps are the offered and steady delivered
	// rates across the package.
	OfferedGbps float64
	GoodputGbps float64
	// Availability is delivered/offered for the epoch, in [0,1].
	Availability float64
	// Violations are the invariant violations of the epoch's runs
	// (Campaign.Validate only), prefixed with the switch index.
	Violations []validate.Violation
}

// Report is the outcome of a campaign. The campaign-wide means are
// weighted by epoch duration.
type Report struct {
	Epochs []EpochResult
	// Availability is the mean per-epoch availability — the fraction of
	// offered traffic the degraded package delivered.
	Availability float64
	// OfferedMaxOverMean, DeliveredMaxOverMean and GoodputGbps are the
	// means of the per-epoch values.
	OfferedMaxOverMean   float64
	DeliveredMaxOverMean float64
	GoodputGbps          float64
	// Rehashes and MovedFibers total the assignment changes.
	Rehashes    int
	MovedFibers int
	// Series is the per-epoch telemetry a sweep point publishes; Run
	// leaves it empty and each sweep's RunPoint fills it with
	// AvailabilitySeries or PolicySeries.
	Series telemetry.Series
	// Events logs every fault and repair inside the horizon.
	Events *telemetry.EventLog
}

// Violations flattens all epoch violations.
func (r *Report) Violations() []validate.Violation {
	var vs []validate.Violation
	for _, ep := range r.Epochs {
		vs = append(vs, ep.Violations...)
	}
	return vs
}

// capacityFraction computes the surviving bandwidth fraction of the
// package: each dead switch loses its full 1/H share; each surviving
// switch is scaled by its live-channel fraction (dead bank groups cost
// buffer capacity, not bandwidth, and dimmed fibers reduce offered
// load rather than capacity).
func capacityFraction(st State, channels int) float64 {
	if len(st.Alive) == 0 {
		return 1
	}
	var frac float64
	for h, alive := range st.Alive {
		if !alive {
			continue
		}
		frac += float64(channels-len(st.DeadChannels[h])) / float64(channels)
	}
	return frac / float64(len(st.Alive))
}

// scaleFlows returns the flows with every dimmed fiber's flows scaled
// to the surviving fraction. With no dimming the input is returned
// unchanged.
func scaleFlows(flows []sps.Flow, dimmed []FiberDim) []sps.Flow {
	if len(dimmed) == 0 {
		return flows
	}
	scale := make(map[[2]int]float64, len(dimmed))
	for _, d := range dimmed {
		scale[[2]int{d.Ribbon, d.Fiber}] = d.Scale
	}
	out := make([]sps.Flow, len(flows))
	copy(out, flows)
	for i := range out {
		if s, ok := scale[[2]int{out[i].SrcRibbon, out[i].Fiber}]; ok {
			out[i].Rate *= s
		}
	}
	return out
}

// maxOverMeanLive computes max/mean over the live entries only; dead
// switches carry no fibers and must not drag the mean down.
func maxOverMeanLive(vals []float64, alive []bool) float64 {
	var sum, max float64
	n := 0
	for i, v := range vals {
		if !alive[i] {
			continue
		}
		sum += v
		if v > max {
			max = v
		}
		n++
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return max / (sum / float64(n))
}

// predictEWMAAlpha weights the newest epoch in the per-switch load
// forecast. 0.5 halves a stale epoch's influence every boundary —
// responsive enough for the 4-epoch default campaigns, smooth enough
// that one adversarial epoch does not dominate the prediction.
const predictEWMAAlpha = 0.5

// switchRun is one (epoch, switch) simulation's outcome.
type switchRun struct {
	rep        *hbmswitch.Report
	violations []validate.Violation
}

// runSwitch simulates live switch sw for one epoch of duration dur
// under state st and traffic matrix m, seeded by (epoch, switch) only.
func (c *Campaign) runSwitch(epoch, sw int, dur sim.Time, st State, m *traffic.Matrix, sizes traffic.SizeDist) (switchRun, error) {
	cfg := c.Switch
	cfg.Degraded = hbmswitch.Degraded{
		DeadGroups:   st.DeadGroups[sw],
		DeadChannels: st.DeadChannels[sw],
	}
	cfg.Shadow = c.Validate && st.SwitchHealthy(sw)
	sps.ClampRows(m)
	swm, err := hbmswitch.New(cfg)
	if err != nil {
		return switchRun{}, fmt.Errorf("epoch %d switch %d: %w", epoch, sw, err)
	}
	var obs *validate.Observer
	if c.Validate {
		obs = validate.NewObserver(cfg, dur)
		swm.SetProbe(obs.Probe())
	}
	seed := parallel.Seed(c.Seed, epoch*c.SPS.H+sw)
	srcs := traffic.UniformSources(m, cfg.PortRate, c.Kind, sizes, sim.NewRNG(seed))
	rep, err := swm.Run(traffic.NewMux(srcs), dur)
	if err != nil {
		return switchRun{}, fmt.Errorf("epoch %d switch %d: %w", epoch, sw, err)
	}
	res := switchRun{rep: rep}
	if obs != nil {
		for _, v := range obs.CheckEpoch(rep, m.Admissible(1e-6)) {
			v.Detail = fmt.Sprintf("switch %d: %s", sw, v.Detail)
			res.violations = append(res.violations, v)
		}
	}
	return res, nil
}

// Run executes the campaign epoch by epoch: sample the health state,
// let the policy re-hash (or degrade the static splitter), simulate
// every live switch in parallel, then feed the measurements back to
// the policy.
func (c *Campaign) Run() (*Report, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	dep, err := sps.NewDeployment(c.SPS)
	if err != nil {
		return nil, err
	}
	flows := c.Flows
	if flows == nil {
		if flows, err = sps.UniformFiberFlows(c.SPS, c.Load, c.Seed); err != nil {
			return nil, err
		}
	}
	sizes := c.Sizes
	if sizes == nil {
		sizes = traffic.IMIX()
	}
	h := c.SPS.H
	workers := parallel.Workers(c.Workers)
	fiberGbps := float64(c.SPS.FiberRate()) / 1e9
	portGbps := float64(c.SPS.PortRate()) / 1e9 * float64(c.SPS.N)
	switchCap := float64(c.SPS.N * c.SPS.Alpha())

	rep := &Report{Events: &telemetry.EventLog{}}
	cur := dep
	var prev Sense // previous epoch's measurements for the policy
	for e, ep := range c.epochs() {
		if err := c.ctx().Err(); err != nil {
			return nil, err
		}
		st := StateAt(c.Faults, ep.Start, h)
		epFlows := scaleFlows(flows, st.Dimmed)
		var live []int
		for sw, a := range st.Alive {
			if a {
				live = append(live, sw)
			}
		}

		// Assignment: the policy's re-hash, else the static splitter.
		prevSplitter := cur.Splitter
		var next [][]int
		if c.Policy != nil {
			sense := prev
			sense.Epoch, sense.FiberLoad, sense.Alive = e, dep.FiberLoads(epFlows), st.Alive
			next = c.Policy.Rehash(cur.Splitter, sense, sim.NewRNG(parallel.Seed(c.Seed^0x5911c3, e)))
		}
		if next != nil {
			var alive []bool // Reassign takes nil for "all alive"
			if len(live) < h {
				alive = st.Alive
			}
			if cur, err = cur.Reassign(next, alive); err != nil {
				return nil, fmt.Errorf("resilience: epoch %d %s rehash: %w", e, c.Policy.Name(), err)
			}
		} else if cur, err = dep.Degrade(st.Alive, c.SPS.Seed); err != nil {
			return nil, fmt.Errorf("resilience: epoch %d degrade: %w", e, err)
		}
		er := EpochResult{
			Start:            ep.Start,
			End:              ep.End,
			State:            st,
			CapacityFraction: capacityFraction(st, c.Switch.PFI.Channels),
			MovedFibers:      optics.MovedFibers(prevSplitter, cur.Splitter),
			SwitchLoad:       cur.SwitchLoads(epFlows),
		}
		er.Rehashed = er.MovedFibers > 0
		if er.Rehashed {
			rep.Rehashes++
			rep.MovedFibers += er.MovedFibers
		}
		er.OfferedMaxOverMean = maxOverMeanLive(er.SwitchLoad, st.Alive)
		for _, f := range epFlows {
			er.OfferedGbps += f.Rate * fiberGbps
		}

		mats := cur.SwitchMatrices(epFlows)
		results, err := parallel.MapCtx(c.ctx(), workers, len(live), func(i int) (switchRun, error) {
			return c.runSwitch(e, live[i], ep.Duration(), st, mats[live[i]], sizes)
		})
		if err != nil {
			return nil, err
		}
		delivered := make([]float64, h)
		deliveredBytes := make([]int64, h)
		queuePeak := make([]int64, h)
		for i, sw := range live {
			r := results[i].rep
			er.GoodputGbps += r.Throughput * portGbps
			delivered[sw] = float64(r.DeliveredBytes)
			deliveredBytes[sw] = r.DeliveredBytes
			queuePeak[sw] = r.TailHighWater
			er.Violations = append(er.Violations, results[i].violations...)
		}
		er.DeliveredMaxOverMean = maxOverMeanLive(delivered, st.Alive)
		er.Availability = 1
		if er.OfferedGbps > 0 {
			er.Availability = min(er.GoodputGbps/er.OfferedGbps, 1)
		}
		rep.Epochs = append(rep.Epochs, er)

		// Feed the measurements back for the next epoch's sense; the
		// load forecast folds each epoch in at predictEWMAAlpha.
		loads := make([]float64, h)
		predicted := make([]float64, h)
		for sw, l := range er.SwitchLoad {
			loads[sw] = l / switchCap
			predicted[sw] = loads[sw]
			if prev.PredictedLoad != nil {
				predicted[sw] = predictEWMAAlpha*loads[sw] + (1-predictEWMAAlpha)*prev.PredictedLoad[sw]
			}
		}
		prev = Sense{
			Epoch:          e,
			SwitchLoad:     loads,
			DeliveredBytes: deliveredBytes,
			QueuePeak:      queuePeak,
			PredictedLoad:  predicted,
			Alive:          st.Alive,
		}
		if c.Policy != nil {
			c.Policy.Observe(prev)
		}
	}

	var availSum, momSum, dmomSum, goodSum, durSum float64
	for _, ep := range rep.Epochs {
		d := (ep.End - ep.Start).Seconds()
		availSum += ep.Availability * d
		momSum += ep.OfferedMaxOverMean * d
		dmomSum += ep.DeliveredMaxOverMean * d
		goodSum += ep.GoodputGbps * d
		durSum += d
	}
	if durSum > 0 {
		rep.Availability = availSum / durSum
		rep.OfferedMaxOverMean = momSum / durSum
		rep.DeliveredMaxOverMean = dmomSum / durSum
		rep.GoodputGbps = goodSum / durSum
	}
	for _, f := range c.Faults {
		if f.Fail < c.Horizon {
			rep.Events.Add(f.Fail, "fail", f.Component())
		}
		if f.Repair < c.Horizon {
			rep.Events.Add(f.Repair, "repair", f.Component())
		}
	}
	rep.Events.Sort()
	return rep, nil
}

// AvailabilitySeries renders the epochs as the availability
// trajectory, one row per epoch start.
func (r *Report) AvailabilitySeries() telemetry.Series {
	s := telemetry.Series{Names: []string{
		"capacity_fraction", "offered_gbps", "goodput_gbps", "availability",
		"failed_switches", "dead_channels", "dead_groups", "dimmed_fibers",
	}}
	for _, ep := range r.Epochs {
		sw, ch, gr, fb := ep.State.Counts()
		s.Times = append(s.Times, ep.Start)
		s.Rows = append(s.Rows, []float64{
			ep.CapacityFraction, ep.OfferedGbps, ep.GoodputGbps, ep.Availability,
			float64(sw), float64(ch), float64(gr), float64(fb),
		})
	}
	return s
}

// PolicySeries renders the epochs as the split.policy.* trajectory,
// one row per epoch start.
func (r *Report) PolicySeries() telemetry.Series {
	s := telemetry.Series{Names: []string{
		"split.policy.rehashes", "split.policy.moved_fibers",
		"split.policy.offered_max_over_mean", "split.policy.delivered_max_over_mean",
		"split.policy.offered_gbps", "split.policy.goodput_gbps",
		"split.policy.violations",
	}}
	rehashes := 0
	for _, ep := range r.Epochs {
		if ep.Rehashed {
			rehashes++
		}
		s.Times = append(s.Times, ep.Start)
		s.Rows = append(s.Rows, []float64{
			float64(rehashes), float64(ep.MovedFibers),
			ep.OfferedMaxOverMean, ep.DeliveredMaxOverMean,
			ep.OfferedGbps, ep.GoodputGbps,
			float64(len(ep.Violations)),
		})
	}
	return s
}
