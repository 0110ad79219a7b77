package splitpolicy

import (
	"context"
	"fmt"
	"strings"

	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/resilience"
	"pbrouter/internal/sim"
	"pbrouter/internal/sps"
	"pbrouter/internal/telemetry"
)

// The policy-sweep library behind cmd/spssplit and the serving
// daemon's "split" jobs: a sweep is the policy × workload grid, each
// point an independent deterministic campaign, so points checkpoint
// and reassemble byte-identically — the same contract as the
// resilience sweeps.

// Sweep workloads.
const (
	WorkloadAdversarial = "adversarial" // α hot fibers per ribbon, the worst case for a static split
	WorkloadElephants   = "elephants"   // heavy-tailed flows hashed onto fibers
	WorkloadIncast      = "incast"      // every ribbon sends to ribbon 0
	WorkloadChurn       = "churn"       // uniform load under fail/repair faults
)

// WorkloadNames lists the sweep workloads in canonical order.
func WorkloadNames() []string {
	return []string{WorkloadAdversarial, WorkloadElephants, WorkloadIncast, WorkloadChurn}
}

// SweepConfig describes one policy sweep. Normalize fills every unset
// knob with the cmd/spssplit default, so a JSON job spec and the CLI
// flag set resolve to the same grid.
type SweepConfig struct {
	Policies  []string `json:"policies,omitempty"`  // default: all (static first)
	Workloads []string `json:"workloads,omitempty"` // default: all

	N           int     `json:"n,omitempty"`            // fiber ribbons (router ports)
	F           int     `json:"f,omitempty"`            // fibers per ribbon
	H           int     `json:"h,omitempty"`            // parallel HBM switches
	Wavelengths int     `json:"wavelengths,omitempty"`  // WDM wavelengths per fiber
	ChannelGbps float64 `json:"channel_gbps,omitempty"` // WDM channel rate in Gb/s
	Stacks      int     `json:"stacks,omitempty"`       // HBM stacks per switch

	Load      float64  `json:"load,omitempty"`       // offered load per fiber in (0,1]
	HorizonPs sim.Time `json:"horizon_ps,omitempty"` // campaign horizon (simulated)
	Epochs    int      `json:"epochs,omitempty"`     // rehash epochs per campaign
	Seed      uint64   `json:"seed,omitempty"`
	Workers   int      `json:"-"` // per-point parallelism; never part of the result
	Validate  *bool    `json:"validate,omitempty"`
}

// Normalize fills unset fields with the cmd/spssplit defaults.
func (c *SweepConfig) Normalize() {
	if len(c.Policies) == 0 {
		c.Policies = PolicyNames()
	}
	if len(c.Workloads) == 0 {
		c.Workloads = WorkloadNames()
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
		c.Load = 0.9
	}
	if c.HorizonPs == 0 {
		c.HorizonPs = 40 * sim.Microsecond
	}
	if c.Epochs == 0 {
		c.Epochs = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Validate == nil {
		t := true
		c.Validate = &t
	}
}

// NumPoints returns how many grid points the sweep runs.
func (c SweepConfig) NumPoints() int { return len(c.Policies) * len(c.Workloads) }

// PointPolicy returns the policy name of grid point k (policy-major
// order: all workloads of one policy before the next policy).
func (c SweepConfig) PointPolicy(k int) string { return c.Policies[k/len(c.Workloads)] }

// PointWorkload returns the workload name of grid point k.
func (c SweepConfig) PointWorkload(k int) string { return c.Workloads[k%len(c.Workloads)] }

// Check validates the sweep configuration (after Normalize).
func (c SweepConfig) Check() error {
	if c.Stacks < 1 {
		return fmt.Errorf("splitpolicy: need at least 1 HBM stack, got %d", c.Stacks)
	}
	for _, p := range c.Policies {
		if _, err := NewPolicy(p); err != nil {
			return err
		}
	}
	for _, w := range c.Workloads {
		switch w {
		case WorkloadAdversarial, WorkloadElephants, WorkloadIncast, WorkloadChurn:
		default:
			return fmt.Errorf("splitpolicy: unknown workload %q (%s)",
				w, strings.Join(WorkloadNames(), "|"))
		}
	}
	camp, err := c.campaign(context.Background())
	if err != nil {
		return err
	}
	return camp.Check()
}

// campaign builds the resilience sweep's campaign for this grid's
// geometry, sliced into c.Epochs equal rehash epochs.
func (c SweepConfig) campaign(ctx context.Context) (resilience.Campaign, error) {
	camp, err := resilience.SweepConfig{
		N: c.N, F: c.F, H: c.H,
		Wavelengths: c.Wavelengths,
		ChannelGbps: c.ChannelGbps,
		Stacks:      c.Stacks,
		Load:        c.Load,
		HorizonPs:   c.HorizonPs,
		Seed:        c.Seed,
		Workers:     c.Workers,
		Validate:    c.Validate,
	}.Campaign(ctx)
	camp.Epochs = c.Epochs
	return camp, err
}

// pointInputs builds the flow population and fault schedule for a
// workload. Flows depend only on (config, workload) — never on the
// policy — so every policy of a grid row faces byte-identical load.
func (c SweepConfig) pointInputs(workload string, spsCfg sps.Config, swCfg hbmswitch.Config) ([]sps.Flow, []resilience.Fault, error) {
	switch workload {
	case WorkloadAdversarial:
		flows := sps.Adversarial(spsCfg, c.Seed)
		for i := range flows {
			flows[i].Rate *= c.Load
		}
		return flows, nil, nil
	case WorkloadElephants:
		return sps.Elephants(spsCfg, 64, c.Load, 0.7, c.Seed), nil, nil
	case WorkloadIncast:
		return sps.IncastFlows(spsCfg, 64, c.Load, c.Seed), nil, nil
	case WorkloadChurn:
		sched, err := resilience.GenerateSchedule(resilience.ScheduleConfig{
			Seed:          c.Seed,
			Horizon:       c.HorizonPs,
			MTBF:          c.HorizonPs / 3,
			MTTR:          c.HorizonPs / 6,
			SwitchWeight:  2,
			ChannelWeight: 1,
			GroupWeight:   1,
			FiberWeight:   2,
			Switches:      spsCfg.H,
			Channels:      swCfg.PFI.Channels,
			Groups:        swCfg.PFI.Groups(),
			Ribbons:       spsCfg.N,
			Fibers:        spsCfg.F,
		})
		if err != nil {
			return nil, nil, err
		}
		return nil, sched, nil // nil flows: campaign generates uniform load
	default:
		return nil, nil, fmt.Errorf("splitpolicy: unknown workload %q", workload)
	}
}

// SweepPoint is one grid point's outcome, the checkpoint unit; its
// cross-point mom_vs_static column is derived by Assemble.
type SweepPoint = telemetry.SweepPoint

// RunPoint executes grid point k and returns its outcome together
// with the underlying campaign report (per-epoch split.policy.*
// series) for callers that stream or print it. The point depends only
// on (config, k), never on other points.
func (c SweepConfig) RunPoint(ctx context.Context, k int) (SweepPoint, *resilience.Report, error) {
	pt := SweepPoint{Index: k, TimePs: sim.Time(k)}
	if k < 0 || k >= c.NumPoints() {
		return pt, nil, fmt.Errorf("splitpolicy: point %d outside grid of %d", k, c.NumPoints())
	}
	camp, err := c.campaign(ctx)
	if err != nil {
		return pt, nil, err
	}
	if camp.Policy, err = NewPolicy(c.PointPolicy(k)); err != nil {
		return pt, nil, err
	}
	if camp.Flows, camp.Faults, err = c.pointInputs(c.PointWorkload(k), camp.SPS, camp.Switch); err != nil {
		return pt, nil, err
	}
	rep, err := camp.Run()
	if err != nil {
		return pt, nil, err
	}
	rep.Series = rep.PolicySeries()
	viol := len(rep.Violations())
	pt.Values = []float64{
		float64(k / len(c.Workloads)), float64(k % len(c.Workloads)),
		rep.OfferedMaxOverMean, rep.DeliveredMaxOverMean,
		float64(rep.Rehashes), float64(rep.MovedFibers),
		rep.GoodputGbps, float64(viol),
	}
	pt.TotalViolations = viol
	return pt, rep, nil
}

// TableNames returns the sweep table's column names.
func (c SweepConfig) TableNames() []string {
	return []string{
		"policy", "workload",
		"offered_max_over_mean", "delivered_max_over_mean",
		"mom_vs_static",
		"rehashes", "moved_fibers", "goodput_gbps", "violations",
	}
}

// Assemble builds the sweep table from the per-point outcomes, which
// must be exactly points 0..NumPoints-1 in index order. It returns
// the table and the total violation count. The derived mom_vs_static
// column is each point's offered max-over-mean relative to the static
// policy's on the same workload (0 when static is not in the sweep) —
// below 1.0 means the adaptive policy balances better than the
// paper's passive design point.
func (c SweepConfig) Assemble(points []SweepPoint) (telemetry.Series, int) {
	table := telemetry.Series{Names: c.TableNames()}
	violations := 0
	baseline := make(map[string]float64) // workload → static offered MoM
	for _, pt := range points {
		if c.PointPolicy(pt.Index) == PolicyStatic {
			baseline[c.PointWorkload(pt.Index)] = pt.Values[2]
		}
	}
	for _, pt := range points {
		violations += pt.TotalViolations
		vsStatic := 0.0
		if base := baseline[c.PointWorkload(pt.Index)]; base > 0 {
			vsStatic = pt.Values[2] / base
		}
		row := append(append([]float64{}, pt.Values[:4]...), vsStatic)
		row = append(row, pt.Values[4:]...)
		table.Times = append(table.Times, pt.TimePs)
		table.Rows = append(table.Rows, row)
	}
	return table, violations
}
