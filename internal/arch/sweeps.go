package arch

import (
	"context"
	"fmt"

	"pbrouter/internal/parallel"
	"pbrouter/internal/sim"
	"pbrouter/internal/telemetry"
	"pbrouter/internal/traffic"
	"pbrouter/internal/validate"
	"pbrouter/internal/workload"
)

// The arena library behind cmd/spsarch and the serving daemon's
// "arch" jobs: the sweep is the architecture × workload grid, each
// cell an independent deterministic run, so cells checkpoint and
// reassemble byte-identically — the same contract as the resilience
// and split sweeps.

// SweepConfig describes one arena sweep. Normalize fills every unset
// knob with the cmd/spsarch default, so a JSON job spec and the CLI
// flag set resolve to the same grid.
type SweepConfig struct {
	Archs     []string `json:"archs,omitempty"`     // default: all (sps first, oq second)
	Workloads []string `json:"workloads,omitempty"` // default: all workload kinds

	N        int     `json:"n,omitempty"`         // ports; a perfect square when mesh runs
	H        int     `json:"h,omitempty"`         // PPS middle planes
	Stacks   int     `json:"stacks,omitempty"`    // HBM stacks (SPS and spray memory)
	PortGbps float64 `json:"port_gbps,omitempty"` // external port rate

	Load         float64 `json:"load,omitempty"`          // offered load per input in (0,1]
	TailAlpha    float64 `json:"tail_alpha,omitempty"`    // heavytail Pareto tail index
	BurstRatio   float64 `json:"burst_ratio,omitempty"`   // onoff peak/mean load
	ReplayPath   string  `json:"replay_path,omitempty"`   // external NDJSON trace; empty synthesizes one
	CrosspointKB int64   `json:"crosspoint_kb,omitempty"` // CQ per-crosspoint buffer

	HorizonPs sim.Time `json:"horizon_ps,omitempty"`
	Seed      uint64   `json:"seed,omitempty"`
	Workers   int      `json:"-"` // per-run parallelism; never part of the result
	Validate  *bool    `json:"validate,omitempty"`
}

// Normalize fills unset fields with the cmd/spsarch defaults.
func (c *SweepConfig) Normalize() {
	if len(c.Archs) == 0 {
		c.Archs = ArchNames()
	}
	if len(c.Workloads) == 0 {
		c.Workloads = workload.Kinds()
	}
	if c.N == 0 {
		c.N = 16 // 4×4 mesh
	}
	if c.H == 0 {
		c.H = 4
	}
	if c.Stacks == 0 {
		c.Stacks = 1
	}
	if c.PortGbps == 0 {
		c.PortGbps = 256
	}
	if c.Load == 0 {
		c.Load = 0.9
	}
	if c.TailAlpha == 0 {
		c.TailAlpha = 1.3
	}
	if c.BurstRatio == 0 {
		c.BurstRatio = 4
	}
	if c.CrosspointKB == 0 {
		c.CrosspointKB = 64
	}
	if c.HorizonPs == 0 {
		c.HorizonPs = 40 * sim.Microsecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Validate == nil {
		t := true
		c.Validate = &t
	}
}

// NumPoints returns how many grid cells the sweep runs.
func (c SweepConfig) NumPoints() int { return len(c.Archs) * len(c.Workloads) }

// PointArch returns the architecture of grid point k (arch-major
// order: all workloads of one architecture before the next).
func (c SweepConfig) PointArch(k int) string { return c.Archs[k/len(c.Workloads)] }

// PointWorkload returns the workload of grid point k.
func (c SweepConfig) PointWorkload(k int) string { return c.Workloads[k%len(c.Workloads)] }

// Check validates the sweep configuration (after Normalize).
func (c SweepConfig) Check() error {
	for _, a := range c.Archs {
		d, err := designOf(a)
		if err != nil {
			return err
		}
		if d.check != nil {
			if err := d.check(c); err != nil {
				return err
			}
		}
	}
	if c.N < 2 {
		return fmt.Errorf("arch: need at least 2 ports, got %d", c.N)
	}
	if c.H < 1 {
		return fmt.Errorf("arch: PPS needs at least 1 middle plane, got %d", c.H)
	}
	if c.Stacks < 1 {
		return fmt.Errorf("arch: need at least 1 HBM stack, got %d", c.Stacks)
	}
	if c.CrosspointKB < 1 {
		return fmt.Errorf("arch: crosspoint buffer must be at least 1 KB, got %d", c.CrosspointKB)
	}
	if c.Load <= 0 || c.Load > 1 {
		return fmt.Errorf("arch: load must be in (0,1], got %g", c.Load)
	}
	if c.PortGbps <= 0 {
		return fmt.Errorf("arch: port rate must be positive, got %g", c.PortGbps)
	}
	if c.HorizonPs <= 0 {
		return fmt.Errorf("arch: horizon must be positive, got %v", c.HorizonPs)
	}
	// Every workload's generator config must be valid.
	for _, w := range c.Workloads {
		wcfg := c.workloadConfig(w)
		wcfg.Normalize()
		if w == workload.KindReplay && c.ReplayPath == "" {
			wcfg.ReplayPath = "(synthesized)" // internal trace, no file needed
		}
		if err := wcfg.Check(); err != nil {
			return err
		}
	}
	return nil
}

// portRate resolves the external port rate.
func (c SweepConfig) portRate() sim.Rate { return sim.Rate(c.PortGbps * 1e9) }

// workloadConfig maps the sweep knobs onto one workload's generator
// configuration.
func (c SweepConfig) workloadConfig(kind string) workload.Config {
	return workload.Config{
		Kind:       kind,
		TailAlpha:  c.TailAlpha,
		BurstRatio: c.BurstRatio,
		ReplayPath: c.ReplayPath,
	}
}

// workloadSeed is the stream seed of one workload column. It depends
// only on (config seed, workload index) — never on the architecture —
// so every design in a column faces byte-identical packets.
func (c SweepConfig) workloadSeed(wIdx int) uint64 {
	return parallel.Seed(c.Seed, wIdx)
}

// buildStream constructs the packet stream of one workload column.
// When the replay column has no external trace, it synthesizes one by
// capturing the heavy-tailed generator and replaying it rescaled —
// the full NDJSON ingestion path minus the file.
func (c SweepConfig) buildStream(wIdx int) (traffic.Stream, *traffic.Matrix, error) {
	kind := c.Workloads[wIdx]
	m := traffic.Uniform(c.N, c.Load)
	rng := sim.NewRNG(c.workloadSeed(wIdx))
	if kind == workload.KindReplay && c.ReplayPath == "" {
		htCfg := c.workloadConfig(workload.KindHeavyTail)
		ht, err := workload.New(htCfg, m, c.portRate(), rng)
		if err != nil {
			return nil, nil, err
		}
		recs := workload.Capture(ht, c.HorizonPs)
		if len(recs) == 0 {
			return nil, nil, fmt.Errorf("arch: synthesized replay trace is empty")
		}
		scale := workload.LoadScale(recs, c.portRate(), c.Load)
		return workload.NewReplay(recs, scale), m, nil
	}
	s, err := workload.New(c.workloadConfig(kind), m, c.portRate(), rng)
	if err != nil {
		return nil, nil, err
	}
	return s, m, nil
}

// SweepPoint is one grid cell's outcome, the checkpoint unit; its
// cross-point p99_vs_oq column is derived by Assemble.
type SweepPoint = telemetry.SweepPoint

// Report carries one cell's full outcome for callers that stream or
// print it: the unified cell metrics, the arch.* telemetry series
// (one sample at the horizon), and any invariant violations.
type Report struct {
	Arch       string               `json:"arch"`
	Workload   string               `json:"workload"`
	Cell       Cell                 `json:"cell"`
	Series     telemetry.Series     `json:"series"`
	Violations []validate.Violation `json:"violations,omitempty"`
}

// SeriesNames returns the arch.* telemetry series names.
func SeriesNames() []string {
	return []string{
		"arch.throughput",
		"arch.latency_p50_ps",
		"arch.latency_p99_ps",
		"arch.queue_peak_bytes",
		"arch.reorder_peak_bytes",
		"arch.loss_frac",
		"arch.oeo_stages",
		"arch.violations",
	}
}

// RunPoint executes grid cell k and returns its outcome together with
// the cell report. The cell depends only on (config, k), never on
// other cells, so any worker count and any execution order reassemble
// byte-identically.
func (c SweepConfig) RunPoint(ctx context.Context, k int) (SweepPoint, *Report, error) {
	pt := SweepPoint{Index: k, TimePs: sim.Time(k)}
	if k < 0 || k >= c.NumPoints() {
		return pt, nil, fmt.Errorf("arch: point %d outside grid of %d", k, c.NumPoints())
	}
	if err := ctx.Err(); err != nil {
		return pt, nil, err
	}
	arch, wl := c.PointArch(k), c.PointWorkload(k)
	d, err := designOf(arch)
	if err != nil {
		return pt, nil, err
	}
	stream, m, err := c.buildStream(k % len(c.Workloads))
	if err != nil {
		return pt, nil, err
	}
	cell, vs, err := d.run(c, stream, m)
	if err != nil {
		return pt, nil, err
	}
	// One row in SeriesNames order: the cell's series sample, and the
	// checkpoint point after its (arch, workload) index columns.
	row := []float64{
		cell.Throughput,
		float64(cell.LatencyP50), float64(cell.LatencyP99),
		float64(cell.QueuePeak), float64(cell.ReorderPeak),
		cell.LossFrac, cell.OEOStages, float64(cell.Violations),
	}
	rep := &Report{
		Arch:       arch,
		Workload:   wl,
		Cell:       cell,
		Series:     telemetry.Series{Names: SeriesNames(), Times: []sim.Time{c.HorizonPs}, Rows: [][]float64{row}},
		Violations: vs,
	}
	pt.Values = append([]float64{float64(k / len(c.Workloads)), float64(k % len(c.Workloads))}, row...)
	pt.TotalViolations = cell.Violations
	return pt, rep, nil
}

// TableNames returns the sweep table's column names.
func (c SweepConfig) TableNames() []string {
	return []string{
		"arch", "workload",
		"throughput",
		"latency_p50_ps", "latency_p99_ps",
		"p99_vs_oq",
		"queue_peak_bytes", "reorder_peak_bytes",
		"loss_frac", "oeo_stages", "violations",
	}
}

// Assemble builds the sweep table from the per-cell outcomes, which
// must be exactly points 0..NumPoints-1 in index order. It returns
// the table and the total violation count. The derived p99_vs_oq
// column is each cell's p99 delay relative to the ideal OQ switch on
// the same workload (0 when OQ is not in the sweep) — how much tail
// delay the design adds over the unbuildable ideal.
func (c SweepConfig) Assemble(points []SweepPoint) (telemetry.Series, int) {
	table := telemetry.Series{Names: c.TableNames()}
	violations := 0
	oqP99 := make(map[string]float64) // workload → OQ p99
	for _, pt := range points {
		if c.PointArch(pt.Index) == ArchOQ {
			oqP99[c.PointWorkload(pt.Index)] = pt.Values[4]
		}
	}
	for _, pt := range points {
		violations += pt.TotalViolations
		vsOQ := 0.0
		if base := oqP99[c.PointWorkload(pt.Index)]; base > 0 {
			vsOQ = pt.Values[4] / base
		}
		row := append(append([]float64{}, pt.Values[:5]...), vsOQ)
		row = append(row, pt.Values[5:]...)
		table.Times = append(table.Times, pt.TimePs)
		table.Rows = append(table.Rows, row)
	}
	return table, violations
}
