// Package telemetry is the simulated-time observability layer shared
// by the simulators: a probe registry that samples model state on a
// configurable simulated-time period and emits deterministic
// time-series (CSV or JSON), and a sampled packet-lifecycle tracer
// (trace.go) that emits Chrome trace-event JSON viewable in Perfetto.
//
// Everything is keyed on the simulated clock, never the wall clock, so
// the output of an instrumented run is byte-identical across worker
// counts and machines. A nil *Registry (and a nil *Tracer) is a valid
// no-op: the simulators guard every hook with a nil check, so the
// disabled path costs one predictable branch.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"pbrouter/internal/sim"
)

// Probe is one named metric source. Sample is called on the simulated
// clock; closures may carry state (e.g. a previous counter value for
// rate probes) — the sampling order is the registration order, which
// is deterministic.
type Probe struct {
	Name   string
	Sample func(now sim.Time) float64
}

// Registry samples its probes every Period of simulated time and
// accumulates the rows in memory. The zero value is not usable; build
// with New. A nil *Registry is a no-op on every method.
type Registry struct {
	period   sim.Time
	probes   []Probe
	series   Series
	onSample func(now sim.Time, names []string, row []float64)
}

// New returns a registry sampling at the given simulated-time period.
func New(period sim.Time) (*Registry, error) {
	if period <= 0 {
		return nil, fmt.Errorf("telemetry: non-positive period %v", period)
	}
	return &Registry{period: period}, nil
}

// Period returns the sampling period, or 0 on a nil registry.
func (r *Registry) Period() sim.Time {
	if r == nil {
		return 0
	}
	return r.period
}

// Register adds a probe. Registering after sampling has started
// panics: columns must be stable for the whole series. No-op on nil.
func (r *Registry) Register(name string, sample func(now sim.Time) float64) {
	if r == nil {
		return
	}
	if len(r.series.Times) > 0 {
		panic("telemetry: Register after sampling started")
	}
	r.probes = append(r.probes, Probe{Name: name, Sample: sample})
	r.series.Names = append(r.series.Names, name)
}

// Counter registers a rate probe over a monotone counter: each sample
// reports the counter's increase since the previous tick.
func (r *Registry) Counter(name string, value func() float64) {
	if r == nil {
		return
	}
	var last float64
	r.Register(name, func(sim.Time) float64 {
		v := value()
		d := v - last
		last = v
		return d
	})
}

// Gauge registers a probe reporting an instantaneous value.
func (r *Registry) Gauge(name string, value func() float64) {
	if r == nil {
		return
	}
	r.Register(name, func(sim.Time) float64 { return value() })
}

// Sample records one row at the given simulated time. It is normally
// driven by Start, but models with their own clocking may call it
// directly. No-op on nil.
func (r *Registry) Sample(now sim.Time) {
	if r == nil {
		return
	}
	row := make([]float64, len(r.probes))
	for i, p := range r.probes {
		row[i] = p.Sample(now)
	}
	r.series.Times = append(r.series.Times, now)
	r.series.Rows = append(r.series.Rows, row)
	if r.onSample != nil {
		r.onSample(now, r.series.Names, row)
	}
}

// SetOnSample installs a callback invoked after every recorded row
// with the simulated time, the column names, and the row values (both
// shared, read-only). It lets a live consumer — the serving daemon's
// NDJSON job stream — observe the series while the simulation runs,
// without touching the accumulated Series. The callback runs on the
// simulation goroutine; it must not block on the simulation itself.
// No-op on nil.
func (r *Registry) SetOnSample(fn func(now sim.Time, names []string, row []float64)) {
	if r == nil {
		return
	}
	r.onSample = fn
}

// Start schedules periodic sampling on the scheduler: one row at every
// multiple of the period up to and including the horizon. No-op on
// nil.
func (r *Registry) Start(sched *sim.Scheduler, horizon sim.Time) {
	if r == nil {
		return
	}
	sched.Ticker(r.period, r.period, func(now sim.Time) bool {
		r.Sample(now)
		return now+r.period <= horizon
	})
}

// Series returns the sampled data. The returned value shares storage
// with the registry; callers treat it as read-only. Nil-safe: a nil
// registry yields an empty series.
func (r *Registry) Series() Series {
	if r == nil {
		return Series{}
	}
	return r.series
}

// WriteCSV writes the sampled series; see Series.WriteCSV. No-op on
// nil.
func (r *Registry) WriteCSV(w io.Writer) error {
	if r == nil {
		return nil
	}
	return r.series.WriteCSV(w)
}

// WriteJSON writes the sampled series; see Series.WriteJSON. No-op on
// nil.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	return r.series.WriteJSON(w)
}

// Series is a rectangular simulated-time series: one row per sampling
// tick, one column per probe.
type Series struct {
	Names []string
	Times []sim.Time
	Rows  [][]float64 // len(Times) rows of len(Names) values
}

// SweepPoint is the serializable outcome of one point of a point
// sweep (resilience, split-policy, arena): the checkpoint unit the
// serving daemon stores and reassembles. Values holds the point's table
// row except any cross-point column, which the sweep's Assemble
// derives from all points; TimePs is the row's time-axis value.
type SweepPoint struct {
	Index           int       `json:"index"`
	TimePs          sim.Time  `json:"time_ps"`
	Values          []float64 `json:"values"`
	TotalViolations int       `json:"total_violations"`
}

// Merge concatenates the columns of several series sampled on the same
// tick grid (e.g. the per-switch registries of an SPS run), in
// argument order. It fails if the time axes disagree.
func Merge(parts ...Series) (Series, error) {
	var out Series
	for i, p := range parts {
		if len(p.Times) == 0 && len(p.Names) == 0 {
			continue
		}
		if out.Times == nil {
			out.Times = p.Times
			out.Rows = make([][]float64, len(p.Times))
		} else if len(p.Times) != len(out.Times) {
			return Series{}, fmt.Errorf("telemetry: merge part %d has %d ticks, want %d",
				i, len(p.Times), len(out.Times))
		}
		for t := range p.Times {
			if p.Times[t] != out.Times[t] {
				return Series{}, fmt.Errorf("telemetry: merge part %d tick %d at %v, want %v",
					i, t, p.Times[t], out.Times[t])
			}
		}
		out.Names = append(out.Names, p.Names...)
		for t, row := range p.Rows {
			out.Rows[t] = append(out.Rows[t], row...)
		}
	}
	return out, nil
}

// Derive appends a computed column: fn maps each row (indexed like
// Names) to the new column's value.
func (s *Series) Derive(name string, fn func(row []float64) float64) {
	s.Names = append(s.Names, name)
	for t := range s.Rows {
		s.Rows[t] = append(s.Rows[t], fn(s.Rows[t]))
	}
}

// Column returns the index of a named column, or -1.
func (s Series) Column(name string) int {
	for i, n := range s.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// WriteCSV writes the series in wide format: a header line
// "time_ps,<probe>,..." then one row per tick. Values are formatted
// with strconv's shortest round-trip representation, so the bytes are
// identical wherever the same samples were taken.
func (s Series) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString("time_ps")
	for _, n := range s.Names {
		b.WriteByte(',')
		b.WriteString(n)
	}
	b.WriteByte('\n')
	for t, row := range s.Rows {
		b.WriteString(strconv.FormatInt(int64(s.Times[t]), 10))
		for _, v := range row {
			b.WriteByte(',')
			b.WriteString(FormatValue(v))
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON writes the series as a single deterministic JSON object:
//
//	{"schema":"pbrouter-telemetry/1","probes":[...],
//	 "samples":[{"t_ps":...,"v":[...]},...]}
//
// Marshaling is hand-rolled so field order and number formatting never
// depend on library internals.
func (s Series) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString(`{"schema":"pbrouter-telemetry/1","probes":[`)
	for i, n := range s.Names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(n))
	}
	b.WriteString(`],"samples":[`)
	for t, row := range s.Rows {
		if t > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"t_ps":`)
		b.WriteString(strconv.FormatInt(int64(s.Times[t]), 10))
		b.WriteString(`,"v":[`)
		for i, v := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(FormatValue(v))
		}
		b.WriteString("]}")
	}
	b.WriteString("]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// FormatValue renders a sample value deterministically: integers without a decimal
// point, everything else with the shortest representation that
// round-trips.
func FormatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SchedulerProbes registers the event-loop probes of a simulation
// kernel: events executed per tick and the pending-event queue depth.
func SchedulerProbes(r *Registry, prefix string, sched *sim.Scheduler) {
	if r == nil {
		return
	}
	r.Counter(prefix+"sim.events", func() float64 { return float64(sched.Events()) })
	r.Gauge(prefix+"sim.queue", func() float64 { return float64(sched.Len()) })
}

// MaxOverMean is a Derive helper: given column indexes, it returns the
// peak-to-mean ratio of those columns in a row (1 for all-zero rows) —
// the split-balance metric of the SPS experiments.
func MaxOverMean(cols []int) func(row []float64) float64 {
	return func(row []float64) float64 {
		var sum, max float64
		for _, c := range cols {
			v := row[c]
			sum += v
			if v > max {
				max = v
			}
		}
		if sum == 0 {
			return 1
		}
		return max / (sum / float64(len(cols)))
	}
}

// ColumnsMatching returns the indexes of columns whose name contains
// the substring, in column order — a convenience for Derive helpers.
func (s Series) ColumnsMatching(substr string) []int {
	var out []int
	for i, n := range s.Names {
		if strings.Contains(n, substr) {
			out = append(out, i)
		}
	}
	return out
}

// SortedNames returns the probe names in lexical order (for
// diagnostics; the canonical column order is registration order).
func (s Series) SortedNames() []string {
	out := append([]string(nil), s.Names...)
	sort.Strings(out)
	return out
}
