package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"pbrouter/internal/arch"
	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/parallel"
	"pbrouter/internal/resilience"
	"pbrouter/internal/sim"
	"pbrouter/internal/telemetry"
	"pbrouter/internal/validate"
	"pbrouter/router"
)

// validateChunk is the checkpoint-unit size of a validation sweep:
// one unit is this many consecutive cases. It must never change for
// existing checkpoints to resume, and it does not affect results —
// cases are self-contained and assembled in index order.
const validateChunk = 16

// FoundError reports that a job ran to completion and produced a full
// result, but the run found violations or failures. The job lands in
// state failed with the result attached, mirroring the CLI twin's
// exit code 1 next to complete output.
type FoundError struct {
	N    int
	What string
}

func (e *FoundError) Error() string { return fmt.Sprintf("%d %s", e.N, e.What) }

// runEnv is what a job's units get from the run executing them: the
// completed prefix of units to replay, a sink for newly completed
// units, a stream to publish events to, sinks for in-memory run
// artifacts (telemetry series per sweep point, the packet-lifecycle
// trace), and the per-job parallelism. emit is required; the save
// sinks may be nil.
type runEnv struct {
	id         string
	workers    int
	units      []json.RawMessage
	saveUnit   func(u int, payload json.RawMessage) bool
	saveSeries func(point int, s telemetry.Series)
	saveTrace  func([]byte)
	emit       func(v any)
}

// jobKind is one job kind as the server runs it. A job is a fixed
// number of self-contained units, each depending only on (spec, u),
// so units run anywhere, in any order and with any parallelism, and
// still assemble byte-identically. run executes unit u, streaming its
// own telemetry through env, and returns the unit's checkpoint
// payload. assemble rebuilds the result from every payload, in unit
// order, through the CLI twin's serializer; a *FoundError arrives next
// to a complete result when the run found violations or failures. An
// adapter runs one unit at a time: each caller builds its own with
// Spec.kind.
type jobKind interface {
	units() int
	run(ctx context.Context, u int, env runEnv) (json.RawMessage, error)
	assemble(units []json.RawMessage) ([]byte, error)
}

// kind returns the spec's job-kind adapter. The spec must be
// normalized and checked.
func (s Spec) kind() jobKind {
	switch s.Kind {
	case KindSim:
		return s.Sim
	case KindSweep:
		return s.Sweep
	case KindValidate:
		return s.Validate
	case KindResilience:
		c := *s.Resilience
		return pointSweep[*resilience.Report]{&c, &c.Workers, c.Validate, campaignSeries}
	case KindSplit:
		c := *s.Split
		return pointSweep[*resilience.Report]{&c, &c.Workers, c.Validate, campaignSeries}
	case KindArch:
		c := *s.Arch
		return pointSweep[*arch.Report]{&c, &c.Workers, c.Validate, arenaSeries}
	}
	return nil
}

// admit normalizes and checks the spec in place and returns its
// job-kind adapter: the one admission path of POST /jobs, POST /units
// and checkpoint resume.
func admit(spec *Spec) (jobKind, error) {
	spec.Normalize()
	if err := spec.Check(); err != nil {
		return nil, err
	}
	return spec.kind(), nil
}

// runSpec executes the job unit by unit after the completed prefix
// env.units, handing each new unit to env.saveUnit, and returns the
// assembled result JSON — byte-identical to the equivalent CLI run at
// the same seed, including when the returned error is a *FoundError.
func runSpec(ctx context.Context, spec Spec, env runEnv) ([]byte, error) {
	k := spec.kind()
	units := append([]json.RawMessage(nil), env.units...)
	for u := len(units); u < k.units(); u++ {
		payload, err := k.run(ctx, u, env)
		if err != nil {
			return nil, err
		}
		units = append(units, payload)
		if env.saveUnit != nil {
			env.saveUnit(u, payload)
		}
	}
	return k.assemble(units)
}

// A sim job is one packet-level switch simulation: one unit whose
// payload is the report JSON itself, written by
// hbmswitch.Report.WriteJSON — the writer behind spssim -json.

func (s *SimSpec) units() int { return 1 }

// run simulates the switch. Cancellation is honored before the run
// starts. A telemetry registry is attached purely to stream samples;
// instrumentation does not change results (the switch's own tests pin
// that invariant).
func (s *SimSpec) run(ctx context.Context, _ int, env runEnv) (json.RawMessage, error) {
	cfg := s.Config()
	sw, err := hbmswitch.New(cfg)
	if err != nil {
		return nil, err
	}
	var tracer *telemetry.Tracer
	if s.TraceSample > 0 {
		if tracer, err = telemetry.NewTracer(s.TraceSample); err != nil {
			return nil, err
		}
	}
	reg, err := telemetry.New(sim.Microsecond)
	if err == nil {
		sent := false
		reg.SetOnSample(func(now sim.Time, names []string, row []float64) {
			if !sent {
				env.emit(probesEvent{Job: env.id, Event: "probes", Names: names})
				sent = true
			}
			env.emit(sampleEvent{Job: env.id, Event: "sample", TimePs: now, Values: append([]float64(nil), row...)})
		})
		sw.Instrument(reg, tracer, "", 0)
		if s.CoreProbes {
			// Opt-in: extra columns would change the default series
			// shape, which existing consumers pin byte-for-byte.
			sw.InstrumentCore(reg, "")
		}
	}
	stream, err := s.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep, err := sw.Run(stream, s.HorizonPs)
	if err != nil {
		return nil, err
	}
	if reg != nil && env.saveSeries != nil {
		env.saveSeries(0, reg.Series())
	}
	if tracer != nil && env.saveTrace != nil {
		var tbuf bytes.Buffer
		if err := tracer.WriteJSON(&tbuf); err == nil {
			env.saveTrace(tbuf.Bytes())
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// assemble returns the report, recovering the invariant-violation
// verdict from its JSON.
func (s *SimSpec) assemble(units []json.RawMessage) ([]byte, error) {
	var rep struct {
		Errors []string `json:"errors"`
	}
	if err := json.Unmarshal(units[0], &rep); err != nil {
		return nil, fmt.Errorf("serve: assemble sim: corrupt unit payload: %w", err)
	}
	if len(rep.Errors) > 0 {
		return units[0], &FoundError{N: len(rep.Errors), What: "invariant violations"}
	}
	return units[0], nil
}

// A sweep job is one registered experiment: one unit whose payload is
// the result JSON, written by router.Result.WriteJSON — the writer
// behind spsbench -format json. A cancelled sweep reruns from the spec.

func (s *SweepSpec) units() int { return 1 }

// run runs the experiment through the same entry point as spsbench,
// with the job's context and the sweep engine's progress streamed.
func (s *SweepSpec) run(ctx context.Context, _ int, env runEnv) (json.RawMessage, error) {
	res, err := router.RunExperiment(s.Experiment, router.Options{
		Quick:       s.Quick,
		Seed:        s.Seed,
		Reps:        s.Reps,
		Parallelism: env.workers,
		Ctx:         ctx,
		Progress: func(done, total int) {
			env.emit(progressEvent{Job: env.id, Event: "progress", Done: done, Total: total})
		},
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, s.Experiment); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (s *SweepSpec) assemble(units []json.RawMessage) ([]byte, error) { return units[0], nil }

// A validate job is a validation sweep in units of validateChunk
// consecutive cases, each payload the chunk's []validate.CaseOutcome.
// Cases are self-contained, so the assembled result is byte-identical
// to an uninterrupted spsvalidate run.

func (s *ValidateSpec) units() int { return (s.Cases + validateChunk - 1) / validateChunk }

func (s *ValidateSpec) run(ctx context.Context, u int, env runEnv) (json.RawMessage, error) {
	opts := s.Options(env.workers)
	lo := u * validateChunk
	hi := min(lo+validateChunk, opts.Cases)
	chunk, err := parallel.MapCtx(ctx, parallel.Workers(opts.Workers), hi-lo,
		func(i int) (validate.CaseOutcome, error) {
			return validate.RunCase(opts, lo+i), nil
		})
	if err != nil {
		return nil, err
	}
	return json.Marshal(chunk)
}

// assemble merges the chunks through validate.Assemble, mirroring
// spsvalidate's exit semantics: failing cases make the job fail with
// the full result attached.
func (s *ValidateSpec) assemble(units []json.RawMessage) ([]byte, error) {
	var outcomes []validate.CaseOutcome
	for _, u := range units {
		var chunk []validate.CaseOutcome
		if err := json.Unmarshal(u, &chunk); err != nil {
			return nil, fmt.Errorf("serve: corrupt validate checkpoint unit: %w", err)
		}
		outcomes = append(outcomes, chunk...)
	}
	res := validate.Assemble(s.Options(0), outcomes)
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return nil, err
	}
	if res.Failures > 0 {
		return buf.Bytes(), &FoundError{N: res.Failures, What: "failing cases"}
	}
	return buf.Bytes(), nil
}

// pointConfig is what the three point-sweep configs share; R is the
// report RunPoint returns next to each point.
type pointConfig[R any] interface {
	NumPoints() int
	RunPoint(ctx context.Context, k int) (telemetry.SweepPoint, R, error)
	Assemble(points []telemetry.SweepPoint) (telemetry.Series, int)
}

// pointSweep is the job kind of the three point sweeps — resilience
// (≡ spsresil), split (≡ spssplit) and arch (≡ spsarch): unit k is
// sweep point k, its payload the telemetry.SweepPoint, and the result
// the sweep's assembled table written by telemetry.Series.WriteJSON,
// the writer behind each CLI's -json.
type pointSweep[R any] struct {
	cfg pointConfig[R]
	// workers points at cfg's Workers field: per-run parallelism,
	// never part of the result.
	workers  *int
	validate *bool
	series   func(R) telemetry.Series // the point's telemetry, off its report
}

// campaignSeries (resilience and split points) and arenaSeries (arch
// cells) read a point's telemetry off its report.
func campaignSeries(r *resilience.Report) telemetry.Series { return r.Series }
func arenaSeries(r *arch.Report) telemetry.Series          { return r.Series }

func (p pointSweep[R]) units() int { return p.cfg.NumPoints() }

// run runs point k and streams its series: the names before point 0's
// samples, then every sample tagged with its point.
func (p pointSweep[R]) run(ctx context.Context, k int, env runEnv) (json.RawMessage, error) {
	*p.workers = env.workers
	pt, rep, err := p.cfg.RunPoint(ctx, k)
	if err != nil {
		return nil, err
	}
	ser := p.series(rep)
	if k == 0 {
		env.emit(probesEvent{Job: env.id, Event: "probes", Names: ser.Names})
	}
	for i, t := range ser.Times {
		env.emit(sampleEvent{Job: env.id, Event: "sample", Point: k, TimePs: t, Values: ser.Rows[i]})
	}
	if env.saveSeries != nil {
		env.saveSeries(k, ser)
	}
	return json.Marshal(pt)
}

// assemble builds the table from the points, mirroring the CLIs' exit
// semantics: with validation on, violations fail the job with the
// full table attached.
func (p pointSweep[R]) assemble(units []json.RawMessage) ([]byte, error) {
	pts := make([]telemetry.SweepPoint, len(units))
	for i, u := range units {
		if err := json.Unmarshal(u, &pts[i]); err != nil {
			return nil, fmt.Errorf("serve: corrupt sweep checkpoint unit: %w", err)
		}
	}
	table, violations := p.cfg.Assemble(pts)
	var buf bytes.Buffer
	if err := table.WriteJSON(&buf); err != nil {
		return nil, err
	}
	if (p.validate == nil || *p.validate) && violations > 0 {
		return buf.Bytes(), &FoundError{N: violations, What: "invariant violations"}
	}
	return buf.Bytes(), nil
}
