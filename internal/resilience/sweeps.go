package resilience

import (
	"context"
	"fmt"

	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/sim"
	"pbrouter/internal/sps"
	"pbrouter/internal/telemetry"
	"pbrouter/internal/traffic"
)

// This file is the availability-sweep library behind cmd/spsresil and
// the serving daemon's "resilience" jobs: one sweep is a deterministic
// sequence of independent points (campaigns), each runnable on its
// own, so a sweep can be resumed point by point from a checkpoint and
// still assemble the byte-identical report table.

// Sweep modes.
const (
	ModeFailedSwitches = "failed-switches"
	ModeMTBF           = "mtbf"
)

// SweepConfig describes one availability sweep. The zero value is not
// runnable; Normalize fills every unset knob with the cmd/spsresil
// default, so a JSON job spec and the CLI flag set resolve to the
// same campaign.
type SweepConfig struct {
	Mode string `json:"mode,omitempty"` // failed-switches (default) | mtbf

	N           int     `json:"n,omitempty"`            // fiber ribbons (router ports)
	F           int     `json:"f,omitempty"`            // fibers per ribbon
	H           int     `json:"h,omitempty"`            // parallel HBM switches
	Wavelengths int     `json:"wavelengths,omitempty"`  // WDM wavelengths per fiber
	ChannelGbps float64 `json:"channel_gbps,omitempty"` // WDM channel rate in Gb/s
	Stacks      int     `json:"stacks,omitempty"`       // HBM stacks per switch

	Load      float64  `json:"load,omitempty"`       // offered load per fiber in (0,1]
	HorizonPs sim.Time `json:"horizon_ps,omitempty"` // campaign horizon (simulated)
	Seed      uint64   `json:"seed,omitempty"`
	Workers   int      `json:"-"` // per-point parallelism; never part of the result
	Validate  *bool    `json:"validate,omitempty"`

	MaxFailed int      `json:"max_failed,omitempty"` // failed-switches: fail 0..max
	MTBFPs    sim.Time `json:"mtbf_ps,omitempty"`    // mtbf: mean time between faults
	MTTRPs    sim.Time `json:"mttr_ps,omitempty"`    // mtbf: mean time to repair
	Points    int      `json:"points,omitempty"`     // mtbf: points, halving MTBF each
}

// Normalize fills unset fields with the cmd/spsresil defaults.
func (c *SweepConfig) Normalize() {
	if c.Mode == "" {
		c.Mode = ModeFailedSwitches
	}
	if c.N == 0 {
		c.N = 8
	}
	if c.F == 0 {
		c.F = 16
	}
	if c.H == 0 {
		c.H = 4
	}
	if c.Wavelengths == 0 {
		c.Wavelengths = 16
	}
	if c.ChannelGbps == 0 {
		c.ChannelGbps = 10
	}
	if c.Stacks == 0 {
		c.Stacks = 1
	}
	if c.Load == 0 {
		c.Load = 0.98
	}
	if c.HorizonPs == 0 {
		c.HorizonPs = 60 * sim.Microsecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Validate == nil {
		t := true
		c.Validate = &t
	}
	if c.Mode == ModeFailedSwitches && c.MaxFailed == 0 {
		c.MaxFailed = 2
	}
	if c.Mode == ModeMTBF {
		if c.MTTRPs == 0 {
			c.MTTRPs = 8 * sim.Microsecond
		}
		if c.Points == 0 {
			c.Points = 3
		}
	}
}

// NumPoints returns how many points the sweep runs.
func (c SweepConfig) NumPoints() int {
	if c.Mode == ModeMTBF {
		return c.Points
	}
	return c.MaxFailed + 1
}

// Check validates the sweep configuration (after Normalize), so a bad
// sweep fails before its first point runs.
func (c SweepConfig) Check() error {
	if c.Stacks < 1 {
		return fmt.Errorf("resilience: need at least 1 HBM stack, got %d", c.Stacks)
	}
	switch c.Mode {
	case ModeFailedSwitches:
		if c.MaxFailed >= c.H {
			return fmt.Errorf("resilience: max-failed %d must leave at least one of %d switches alive", c.MaxFailed, c.H)
		}
	case ModeMTBF:
		if c.MTBFPs <= 0 {
			return fmt.Errorf("resilience: mtbf sweep needs a positive MTBF, got %v", c.MTBFPs)
		}
		if c.MTTRPs <= 0 {
			return fmt.Errorf("resilience: mtbf sweep needs a positive MTTR, got %v", c.MTTRPs)
		}
		if c.Points < 1 {
			return fmt.Errorf("resilience: mtbf sweep needs at least one point")
		}
		// MTBF halves every point, so the last point is the tightest.
		if last := c.Points - 1; c.PointMTBF(last) < c.MTTRPs {
			return fmt.Errorf("resilience: mtbf sweep point %d halves MTBF %v to %v, below MTTR %v",
				last, c.MTBFPs, c.PointMTBF(last), c.MTTRPs)
		}
	default:
		return fmt.Errorf("resilience: unknown sweep mode %q (%s|%s)", c.Mode, ModeFailedSwitches, ModeMTBF)
	}
	camp, err := c.Campaign(context.Background())
	if err != nil {
		return err
	}
	return camp.Check()
}

// Campaign builds the campaign every sweep point runs, before the
// point sets its faults (and, for policy sweeps, flows, policy and
// epochs): the geometry cmd/spsresil has always used — reference WDM
// stack, 1.1 speedup, 100ns flush — under Poisson IMIX traffic.
func (c SweepConfig) Campaign(ctx context.Context) (Campaign, error) {
	spsCfg := sps.Config{
		N: c.N, F: c.F, H: c.H,
		WDM:     sps.Reference().WDM,
		Pattern: sps.Reference().Pattern,
		Seed:    sps.Reference().Seed,
	}
	spsCfg.WDM.Wavelengths = c.Wavelengths
	spsCfg.WDM.ChannelRate = sim.Rate(c.ChannelGbps * 1e9)
	if err := spsCfg.Validate(); err != nil {
		return Campaign{}, err
	}
	swCfg := hbmswitch.Scaled(c.Stacks, spsCfg.PortRate())
	swCfg.PFI.N = spsCfg.N
	swCfg.Speedup = 1.1
	swCfg.FlushTimeout = 100 * sim.Nanosecond
	return Campaign{
		SPS:      spsCfg,
		Switch:   swCfg,
		Load:     c.Load,
		Kind:     traffic.Poisson,
		Sizes:    traffic.IMIX(),
		Horizon:  c.HorizonPs,
		Seed:     c.Seed,
		Workers:  c.Workers,
		Validate: c.Validate == nil || *c.Validate,
		Ctx:      ctx,
	}, nil
}

// PointMTBF returns the mean time between faults at mtbf-sweep point
// k: the configured MTBF halved k times.
func (c SweepConfig) PointMTBF(k int) sim.Time { return c.MTBFPs >> uint(k) }

// SweepPoint is one sweep point's outcome, the checkpoint unit; its
// cross-point goodput_vs_baseline column is derived by Assemble.
type SweepPoint = telemetry.SweepPoint

// RunPoint executes sweep point k and returns its outcome together
// with the underlying campaign report (per-epoch series, event log)
// for callers that stream or print it. The point depends only on
// (config, k), never on other points.
func (c SweepConfig) RunPoint(ctx context.Context, k int) (SweepPoint, *Report, error) {
	camp, err := c.Campaign(ctx)
	if err != nil {
		return SweepPoint{}, nil, err
	}
	pt := SweepPoint{Index: k}
	switch c.Mode {
	case ModeFailedSwitches:
		if k >= c.H {
			return pt, nil, fmt.Errorf("resilience: point %d must leave at least one of %d switches alive", k, c.H)
		}
		failed := make([]int, k)
		for i := range failed {
			failed[i] = i
		}
		camp.Faults = SwitchOutage(failed, 0, sim.Forever)
		rep, err := camp.Run()
		if err != nil {
			return pt, nil, err
		}
		rep.Series = rep.AvailabilitySeries()
		ep := rep.Epochs[0]
		pt.Values = []float64{
			float64(k), float64(c.H-k) / float64(c.H),
			ep.OfferedGbps, ep.GoodputGbps, ep.Availability,
			float64(len(ep.Violations)),
		}
		pt.TotalViolations = len(rep.Violations())
		return pt, rep, nil
	case ModeMTBF:
		pm := c.PointMTBF(k)
		sched, err := GenerateSchedule(ScheduleConfig{
			Seed:          c.Seed,
			Horizon:       c.HorizonPs,
			MTBF:          pm,
			MTTR:          c.MTTRPs,
			SwitchWeight:  1,
			ChannelWeight: 2,
			GroupWeight:   2,
			FiberWeight:   1,
			Switches:      camp.SPS.H,
			Channels:      camp.Switch.PFI.Channels,
			Groups:        camp.Switch.PFI.Groups(),
			Ribbons:       camp.SPS.N,
			Fibers:        camp.SPS.F,
		})
		if err != nil {
			return pt, nil, err
		}
		camp.Faults = sched
		rep, err := camp.Run()
		if err != nil {
			return pt, nil, err
		}
		rep.Series = rep.AvailabilitySeries()
		minCap := 1.0
		for _, ep := range rep.Epochs {
			if ep.CapacityFraction < minCap {
				minCap = ep.CapacityFraction
			}
		}
		viol := len(rep.Violations())
		pt.TimePs = sim.Time(k)
		pt.Values = []float64{
			float64(pm), float64(len(sched)), float64(len(rep.Epochs)),
			minCap, rep.Availability, float64(viol),
		}
		pt.TotalViolations = viol
		return pt, rep, nil
	default:
		return pt, nil, fmt.Errorf("resilience: unknown sweep mode %q", c.Mode)
	}
}

// TableNames returns the sweep table's column names.
func (c SweepConfig) TableNames() []string {
	if c.Mode == ModeMTBF {
		return []string{
			"mtbf_ps", "faults", "epochs", "capacity_fraction_min",
			"availability", "violations",
		}
	}
	return []string{
		"failed", "ideal_fraction", "offered_gbps", "goodput_gbps",
		"availability", "goodput_vs_baseline", "violations",
	}
}

// Assemble builds the sweep table from the per-point outcomes, which
// must be exactly points 0..NumPoints-1 in index order. It returns
// the table and the total violation count across the sweep. A sweep
// resumed from checkpointed points assembles byte-identically to an
// uninterrupted one.
func (c SweepConfig) Assemble(points []SweepPoint) (telemetry.Series, int) {
	table := telemetry.Series{Names: c.TableNames()}
	violations := 0
	var baseline float64
	for _, pt := range points {
		violations += pt.TotalViolations
		row := pt.Values
		if c.Mode == ModeFailedSwitches {
			// goodput_vs_baseline keys on point 0's goodput — the one
			// cross-point column, derived here rather than in RunPoint.
			goodput := pt.Values[3]
			if pt.Index == 0 {
				baseline = goodput
			}
			vsBase := 0.0
			if baseline > 0 {
				vsBase = goodput / baseline
			}
			row = append(append([]float64{}, pt.Values[:5]...), vsBase, pt.Values[5])
		}
		table.Times = append(table.Times, pt.TimePs)
		table.Rows = append(table.Rows, row)
	}
	return table, violations
}
