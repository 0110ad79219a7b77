// Package serve implements spsd, the router-simulation serving
// daemon: a long-running HTTP service that accepts simulation jobs
// (packet-level sims, experiment sweeps, validation sweeps, resilience
// campaigns), runs them on a bounded worker pool, streams telemetry
// while they run, and checkpoints long campaigns so a drained or
// killed daemon resumes them on restart.
//
// Every job kind is a thin adapter over the same library entry points
// and serializers its CLI twin uses, so a job's JSON result is
// byte-identical to the equivalent CLI run at the same seed:
//
//	sim        ≡ spssim -json            (hbmswitch.Report.WriteJSON)
//	sweep      ≡ spsbench -format json   (router.Result.WriteJSON)
//	validate   ≡ spsvalidate -out -      (validate.SweepResult.WriteJSON)
//	resilience ≡ spsresil -json -out -   (telemetry.Series.WriteJSON)
//	split      ≡ spssplit -json -out -   (telemetry.Series.WriteJSON)
//	arch       ≡ spsarch -json -out -    (telemetry.Series.WriteJSON)
package serve

import (
	"fmt"
	"strings"

	"pbrouter/internal/arch"
	"pbrouter/internal/cli"
	"pbrouter/internal/core"
	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/resilience"
	"pbrouter/internal/sim"
	"pbrouter/internal/splitpolicy"
	"pbrouter/internal/traffic"
	"pbrouter/internal/validate"
	"pbrouter/router"
)

// Kind names a job kind.
type Kind string

// Job kinds.
const (
	KindSim        Kind = "sim"        // one packet-level switch simulation
	KindSweep      Kind = "sweep"      // one paper experiment (E1..E15, A1..A3)
	KindValidate   Kind = "validate"   // randomized differential-validation sweep
	KindResilience Kind = "resilience" // availability sweep under injected faults
	KindSplit      Kind = "split"      // splitter-policy sweep (policy × workload grid)
	KindArch       Kind = "arch"       // cross-architecture arena (architecture × workload grid)
)

// Kinds lists every job kind the daemon accepts.
var Kinds = []Kind{KindSim, KindSweep, KindValidate, KindResilience, KindSplit, KindArch}

// Spec is a job specification as submitted to POST /jobs: a kind plus
// that kind's parameters. Unset parameters normalize to the matching
// CLI flag defaults, so {"kind":"sim"} runs exactly what a bare
// `spssim` runs.
type Spec struct {
	Kind       Kind                     `json:"kind"`
	Sim        *SimSpec                 `json:"sim,omitempty"`
	Sweep      *SweepSpec               `json:"sweep,omitempty"`
	Validate   *ValidateSpec            `json:"validate,omitempty"`
	Resilience *resilience.SweepConfig  `json:"resilience,omitempty"`
	Split      *splitpolicy.SweepConfig `json:"split,omitempty"`
	Arch       *arch.SweepConfig        `json:"arch,omitempty"`
}

// subSpec is what every kind's parameters provide.
type subSpec interface {
	Normalize()
	Check() error
}

// active returns the kind's sub-spec, created empty when absent, or
// nil for an unknown kind. Inactive sub-specs are left alone and
// ignored.
func (s *Spec) active() subSpec {
	switch s.Kind {
	case KindSim:
		return orNew(&s.Sim)
	case KindSweep:
		return orNew(&s.Sweep)
	case KindValidate:
		return orNew(&s.Validate)
	case KindResilience:
		return orNew(&s.Resilience)
	case KindSplit:
		return orNew(&s.Split)
	case KindArch:
		return archSpec{orNew(&s.Arch)}
	}
	return nil
}

// orNew returns *p, first pointing it at a zero value when it is nil.
func orNew[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// Normalize fills the active sub-spec (creating it if absent) with its
// CLI defaults.
func (s *Spec) Normalize() {
	if sub := s.active(); sub != nil {
		sub.Normalize()
	}
}

// Check validates the spec after Normalize.
func (s Spec) Check() error {
	sub := s.active()
	if sub == nil {
		names := make([]string, len(Kinds))
		for i, k := range Kinds {
			names[i] = string(k)
		}
		return fmt.Errorf("serve: unknown job kind %q (%s)", s.Kind, strings.Join(names, "|"))
	}
	return sub.Check()
}

// UnitCount returns how many checkpoint units the job runs: resumable
// kinds report their unit count (validate: 16-case chunks, the point
// sweeps: points), atomic kinds one. Units are the granularity both of
// the daemon's mid-job checkpoints and of the fleet coordinator's
// dispatch (see RunUnit). The spec must be normalized and checked.
func (s Spec) UnitCount() int { return s.kind().units() }

// archSpec is an arch sub-spec as the daemon admits it: the arena's
// own checks, and no replay trace read from a path the submitter
// names on the daemon's (or, under a fleet, every backend's) disk.
type archSpec struct{ *arch.SweepConfig }

func (a archSpec) Check() error {
	if a.ReplayPath != "" {
		return fmt.Errorf("arch: replay_path %q is not accepted: the daemon synthesizes the replay trace (spsarch -replay reads trace files)", a.ReplayPath)
	}
	return a.SweepConfig.Check()
}

// SimSpec parameterizes a "sim" job exactly like cmd/spssim's flags;
// Normalize applies the same defaults the flag set declares.
type SimSpec struct {
	Load      float64  `json:"load,omitempty"`       // offered load per input in [0,1]
	Matrix    string   `json:"matrix,omitempty"`     // uniform|diagonal|hotspot|incast|failover
	Sizes     string   `json:"sizes,omitempty"`      // imix|64|1500|uniform
	Arrival   string   `json:"arrival,omitempty"`    // poisson|bursty
	HorizonPs sim.Time `json:"horizon_ps,omitempty"` // simulated duration
	Seed      uint64   `json:"seed,omitempty"`
	Speedup   float64  `json:"speedup,omitempty"` // HBM speedup factor
	Shadow    bool     `json:"shadow,omitempty"`  // run the ideal OQ shadow
	Pad       *bool    `json:"pad,omitempty"`     // frame padding (default on)
	Bypass    *bool    `json:"bypass,omitempty"`  // HBM bypass (default on)
	Stacks    int      `json:"stacks,omitempty"`  // HBM stacks (4 = reference)
	Refresh   bool     `json:"refresh,omitempty"` // REFsb refresh scheduler

	// TraceSample, when positive, records a packet-lifecycle Chrome
	// trace (one packet in N) retrievable from the trace endpoint —
	// the daemon's counterpart of spssim -trace -trace-sample N.
	TraceSample int `json:"trace_sample,omitempty"`
	// CoreProbes adds the event-core telemetry probes (timing-wheel
	// cascades/overflow, pool hit/grow/recycle counters) to the job's
	// series — spssim -core-probes. Off by default so the default
	// series shape is unchanged.
	CoreProbes bool `json:"core_probes,omitempty"`
}

// Normalize fills unset fields with the cmd/spssim flag defaults.
func (s *SimSpec) Normalize() {
	if s.Load == 0 {
		s.Load = 0.9
	}
	if s.Matrix == "" {
		s.Matrix = "uniform"
	}
	if s.Sizes == "" {
		s.Sizes = "imix"
	}
	if s.Arrival == "" {
		s.Arrival = "poisson"
	}
	if s.HorizonPs == 0 {
		s.HorizonPs = 50 * sim.Microsecond
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Speedup == 0 {
		s.Speedup = 1.1
	}
	if s.Stacks == 0 {
		s.Stacks = 4
	}
	t := true
	if s.Pad == nil {
		s.Pad = &t
	}
	if s.Bypass == nil {
		s.Bypass = &t
	}
}

// Check validates the spec (after Normalize).
func (s *SimSpec) Check() error {
	if s.HorizonPs <= 0 {
		return fmt.Errorf("sim: horizon_ps must be positive, got %d", s.HorizonPs)
	}
	if s.Stacks < 1 {
		return fmt.Errorf("sim: stacks must be at least 1, got %d", s.Stacks)
	}
	if s.TraceSample < 0 {
		return fmt.Errorf("sim: trace_sample must not be negative, got %d", s.TraceSample)
	}
	if _, err := cli.Matrix(s.Matrix, s.Config().PFI.N, s.Load); err != nil {
		return err
	}
	if _, err := cli.Sizes(s.Sizes); err != nil {
		return err
	}
	if _, err := cli.Arrival(s.Arrival); err != nil {
		return err
	}
	return nil
}

// Config resolves the switch configuration exactly as cmd/spssim
// builds it from the equivalent flags; the command and the daemon
// share this path so the two can never drift.
func (s *SimSpec) Config() hbmswitch.Config {
	cfg := hbmswitch.Reference()
	if s.Stacks != 4 {
		cfg = hbmswitch.Scaled(s.Stacks, sim.Rate(float64(cfg.PortRate)*float64(s.Stacks)/4))
	}
	cfg.Speedup = s.Speedup
	cfg.Shadow = s.Shadow
	cfg.Policy = core.Policy{PadFrames: *s.Pad, BypassHBM: *s.Bypass}
	cfg.FlushTimeout = 100 * sim.Nanosecond
	cfg.EnableRefresh = s.Refresh
	return cfg
}

// NewStream builds the seeded traffic stream for the spec.
func (s *SimSpec) NewStream(cfg hbmswitch.Config) (traffic.Stream, error) {
	m, err := cli.Matrix(s.Matrix, cfg.PFI.N, s.Load)
	if err != nil {
		return nil, err
	}
	dist, err := cli.Sizes(s.Sizes)
	if err != nil {
		return nil, err
	}
	kind, err := cli.Arrival(s.Arrival)
	if err != nil {
		return nil, err
	}
	srcs := traffic.UniformSources(m, cfg.PortRate, kind, dist, sim.NewRNG(s.Seed))
	return traffic.NewMux(srcs), nil
}

// SweepSpec parameterizes a "sweep" job: one experiment from the
// paper-claim registry, run exactly as cmd/spsbench runs it.
type SweepSpec struct {
	Experiment string `json:"experiment,omitempty"` // E1..E15, A1..A3 (default E1)
	Quick      bool   `json:"quick,omitempty"`      // shrink horizons as in -quick
	Seed       uint64 `json:"seed,omitempty"`
	Reps       int    `json:"reps,omitempty"` // replications (mean ± CI)
}

// Normalize fills unset fields with the cmd/spsbench flag defaults.
func (s *SweepSpec) Normalize() {
	if s.Experiment == "" {
		s.Experiment = "E1"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// Check validates the spec (after Normalize).
func (s *SweepSpec) Check() error {
	if router.Lookup(s.Experiment) == nil {
		return fmt.Errorf("sweep: unknown experiment %q", s.Experiment)
	}
	if s.Reps < 0 {
		return fmt.Errorf("sweep: reps must not be negative, got %d", s.Reps)
	}
	return nil
}

// ValidateSpec parameterizes a "validate" job exactly like
// cmd/spsvalidate's sweep flags.
type ValidateSpec struct {
	Seed      uint64  `json:"seed,omitempty"`       // base seed (case i uses seed + i*7919)
	Cases     int     `json:"cases,omitempty"`      // scenarios to generate (default 100)
	Fault     string  `json:"fault,omitempty"`      // inject per-case fault (self-test)
	Shrink    *bool   `json:"shrink,omitempty"`     // shrink failing cases (default on)
	HorizonUs float64 `json:"horizon_us,omitempty"` // override every scenario's horizon
	Repeat    *bool   `json:"repeat,omitempty"`     // double-run determinism check (default on)
}

// Normalize fills unset fields with the cmd/spsvalidate flag defaults.
func (s *ValidateSpec) Normalize() {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Cases == 0 {
		s.Cases = 100
	}
	t := true
	if s.Shrink == nil {
		s.Shrink = &t
	}
	if s.Repeat == nil {
		s.Repeat = &t
	}
}

// Check validates the spec (after Normalize).
func (s *ValidateSpec) Check() error {
	if s.Cases < 1 {
		return fmt.Errorf("validate: cases must be at least 1, got %d", s.Cases)
	}
	if s.HorizonUs < 0 {
		return fmt.Errorf("validate: horizon_us must not be negative, got %g", s.HorizonUs)
	}
	switch s.Fault {
	case "", "fixed-group", "starve":
	default:
		return fmt.Errorf("validate: unknown fault %q (fixed-group|starve)", s.Fault)
	}
	return nil
}

// Options resolves the sweep options the validation library runs
// with; workers is the daemon's per-job parallelism.
func (s *ValidateSpec) Options(workers int) validate.SweepOptions {
	return validate.SweepOptions{
		Seed:      s.Seed,
		Cases:     s.Cases,
		Workers:   workers,
		Shrink:    *s.Shrink,
		Fault:     s.Fault,
		HorizonUs: s.HorizonUs,
		Repeat:    *s.Repeat,
	}
}
