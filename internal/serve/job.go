package serve

import (
	"encoding/json"
	"log/slog"
	"sort"
	"time"

	"pbrouter/internal/telemetry"
)

// State is a job's lifecycle state.
type State string

// Job states. queued → running → done|failed|cancelled; a draining
// daemon moves running jobs back to queued after checkpointing them.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one submitted job. All mutable fields are guarded by the
// owning Server's mutex; the stream has its own lock and is safe to
// use without it.
type Job struct {
	ID   string
	Spec Spec

	State  State
	Error  string
	Result []byte // final result JSON (byte-identical to the CLI twin)

	// units holds the completed checkpoint units (validation case
	// chunks, sweep points) indexed by unit number; nil entries are
	// pending and done counts the rest. A resumed job replays them
	// instead of recomputing. spsd's units always form a prefix.
	units []json.RawMessage
	done  int

	Submitted time.Time
	Started   time.Time
	Finished  time.Time

	cancel func() // cancels the running job's context; nil unless running
	stream *stream

	// In-memory run artifacts, not checkpointed: per-point telemetry
	// series (point 0 for single sims, one per sweep point for
	// resilience) and the packet-lifecycle trace JSON. Serialized on
	// demand by the read-side API through the same telemetry writers
	// the CLIs use, so payloads are byte-identical by construction.
	series map[int]telemetry.Series
	trace  []byte
}

// Run is a running job as its Executor sees it.
type Run struct {
	ID   string
	Spec Spec
	// Emit publishes one event on the job's NDJSON stream.
	Emit func(v any)
	Log  *slog.Logger

	s *Server
	j *Job
}

// Units snapshots the job's completed units by unit number; nil
// entries are pending.
func (r *Run) Units() []json.RawMessage {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	return append([]json.RawMessage(nil), r.j.units...)
}

// CompleteUnit records unit u's payload, checkpoints the job, and
// publishes its unit and progress events, both counting completed
// units. It reports false, changing nothing, when u is already done
// (a late duplicate).
func (r *Run) CompleteUnit(u int, payload json.RawMessage) bool {
	r.s.mu.Lock()
	j := r.j
	if j.units[u] != nil {
		r.s.mu.Unlock()
		return false
	}
	j.units[u] = payload
	j.done++
	done, total := j.done, len(j.units)
	r.s.persistLocked(j)
	r.s.mu.Unlock()
	r.Emit(unitEvent{Job: r.ID, Event: "unit", Unit: done, Of: total})
	r.Emit(progressEvent{Job: r.ID, Event: "progress", Done: done, Total: total})
	return true
}

// saveSeries keeps a sweep point's telemetry series (point 0 for
// single sims).
func (r *Run) saveSeries(point int, ser telemetry.Series) {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if r.j.series == nil {
		r.j.series = make(map[int]telemetry.Series)
	}
	r.j.series[point] = ser
}

// saveTrace keeps the job's packet-lifecycle trace.
func (r *Run) saveTrace(b []byte) {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	r.j.trace = b
}

// Status is the wire form of a job's state (GET /jobs, GET /jobs/{id}).
type Status struct {
	ID         string `json:"id"`
	Kind       Kind   `json:"kind"`
	State      State  `json:"state"`
	Error      string `json:"error,omitempty"`
	UnitsDone  int    `json:"units_done"`
	UnitsTotal int    `json:"units_total"`
	HasResult  bool   `json:"has_result"`
}

// status snapshots the job; the server's mutex must be held.
func (j *Job) status() Status {
	return Status{
		ID:         j.ID,
		Kind:       j.Spec.Kind,
		State:      j.State,
		Error:      j.Error,
		UnitsDone:  j.done,
		UnitsTotal: len(j.units),
		HasResult:  len(j.Result) > 0,
	}
}

// JobDetail is the wire form of GET /api/v1/jobs/{id}: the status plus
// the normalized spec, wall-clock timestamps (RFC3339Nano, empty when
// unset), and which run artifacts are available right now.
type JobDetail struct {
	Status
	Spec         Spec   `json:"spec"`
	Submitted    string `json:"submitted,omitempty"`
	Started      string `json:"started,omitempty"`
	Finished     string `json:"finished,omitempty"`
	SeriesPoints []int  `json:"series_points"` // sweep points with a series artifact
	HasTrace     bool   `json:"has_trace"`
	Checkpointed bool   `json:"checkpointed"` // survives a daemon restart
}

// detail snapshots the job's full wire form; the server's mutex must
// be held. checkpointed reports whether persistence is on.
func (j *Job) detail(checkpointed bool) JobDetail {
	d := JobDetail{
		Status:       j.status(),
		Spec:         j.Spec,
		Submitted:    stamp(j.Submitted),
		Started:      stamp(j.Started),
		Finished:     stamp(j.Finished),
		SeriesPoints: []int{},
		HasTrace:     len(j.trace) > 0,
		Checkpointed: checkpointed,
	}
	for p := range j.series {
		d.SeriesPoints = append(d.SeriesPoints, p)
	}
	sort.Ints(d.SeriesPoints)
	return d
}

// stamp renders a wall-clock time for the wire, or "" when unset.
func stamp(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}
