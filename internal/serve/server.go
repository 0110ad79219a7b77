package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"

	"pbrouter/internal/stats"
	"pbrouter/internal/telemetry"
)

// Admission errors, mapped to HTTP statuses by the handlers.
var (
	// ErrQueueFull means the bounded admission queue is at capacity.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDraining means the daemon is shutting down and not admitting.
	ErrDraining = errors.New("serve: draining, not admitting jobs")
)

// Config tunes a Server. The zero value is usable: an in-memory
// daemon with a small queue and no checkpointing.
type Config struct {
	// QueueDepth bounds the admission queue — jobs accepted but not
	// yet running. Submissions beyond it are rejected with
	// ErrQueueFull. Default 64.
	QueueDepth int
	// Workers is the number of jobs run concurrently. Default 2.
	Workers int
	// JobParallelism is each job's internal worker count
	// (parallel.Workers rules: 0 = one per CPU). Results are identical
	// for every value.
	JobParallelism int
	// CheckpointDir persists jobs for resume-on-restart; empty
	// disables persistence.
	CheckpointDir string
	// DrainGrace is how long Drain lets running jobs finish before
	// cancelling them to checkpoint. Default 10s.
	DrainGrace time.Duration
	// Logger receives structured operational logs; nil discards them.
	// The server derives a per-job logger (With "job", "kind") for
	// every job's lifecycle events.
	Logger *slog.Logger
	// APIPrefix mounts the versioned read-side API under this path
	// prefix. Default "/api/v1".
	APIPrefix string
	// UI serves the embedded web dashboard at / when true.
	UI bool
	// FleetURL is the base URL of an spsfleet coordinator; when set,
	// GET {APIPrefix}/fleet proxies its /fleet report and spsfleet_*
	// metrics so the dashboard can render fleet health next to the
	// local job table. Empty disables the endpoint.
	FleetURL string
}

// Executor is the one step that differs between the daemons built on
// Server: it turns a running job into its result. spsd's executor
// runs runSpec in process; spsfleet's dispatches the pending units to
// its backends and assembles them. The return follows runSpec's
// contract: a *FoundError arrives next to a complete result, and a
// context error means the run was cancelled.
type Executor func(ctx context.Context, r *Run) ([]byte, error)

// Daemon is what sets one job server apart from another. New builds
// spsd's; the fleet coordinator passes its own to NewDaemon.
type Daemon struct {
	Name     string // service name and metric prefix, e.g. "spsd"
	Role     string // what the service is, for metric help, e.g. "daemon"
	IDPrefix string // job ID prefix, e.g. "j" for j000042
	Exec     Executor
	// EncodeUnits turns a job's units (indexed by unit, nil = pending)
	// into checkpoint entries; DecodeUnits inverts it for a job of n
	// units. This is the daemon's on-disk unit encoding.
	EncodeUnits func(units []json.RawMessage) ([]json.RawMessage, error)
	DecodeUnits func(entries []json.RawMessage, n int) ([]json.RawMessage, error)
}

// Server owns the job table, the bounded admission queue, and the
// worker pool. Create with New, start with Start, serve its Handler,
// and stop with Drain.
type Server struct {
	cfg Config
	d   Daemon
	log *slog.Logger

	// baseCtx parents every job's context; cancelJobs aborts them all
	// (drain past its grace period).
	baseCtx    context.Context
	cancelJobs context.CancelFunc

	// unitSem bounds concurrently executing /units requests (fleet
	// dispatch) to the same width as the job worker pool.
	unitSem chan struct{}

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // job IDs in submission order
	nextID   int
	queue    chan *Job
	draining bool

	running    int // jobs currently executing
	latency    *stats.Histogram
	latencySum float64

	wg      sync.WaitGroup
	started time.Time
}

// New builds spsd's server, loading any checkpointed jobs from
// cfg.CheckpointDir: unfinished ones re-enter the queue (ahead of new
// submissions), finished ones serve their results again.
func New(cfg Config) (*Server, error) {
	return NewDaemon(cfg, Daemon{
		Name: "spsd", Role: "daemon", IDPrefix: "j", Exec: runLocal,
		EncodeUnits: encodePrefix, DecodeUnits: decodePrefix,
	})
}

// NewDaemon builds a server that turns jobs into results with d's
// executor and checkpoints units with d's encoding.
func NewDaemon(cfg Config, d Daemon) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 10 * time.Second
	}
	if cfg.APIPrefix == "" {
		cfg.APIPrefix = "/api/v1"
	}
	log := cfg.Logger
	if log == nil {
		// Discard below any level ever emitted.
		log = slog.New(slog.NewTextHandler(io.Discard,
			&slog.HandlerOptions{Level: slog.Level(127)}))
	}
	var resumed []*Job
	if cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, err
		}
		jobs, err := loadCheckpoints(cfg.CheckpointDir, d)
		if err != nil {
			return nil, err
		}
		resumed = jobs
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		d:          d,
		log:        log,
		baseCtx:    ctx,
		cancelJobs: cancel,
		unitSem:    make(chan struct{}, cfg.Workers),
		jobs:       make(map[string]*Job),
		// Resumed jobs must fit alongside a full queue of new work.
		queue:   make(chan *Job, cfg.QueueDepth+len(resumed)),
		latency: stats.NewHistogram(1e-4, 1.1),
		started: time.Now(),
	}
	for _, j := range resumed {
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if n := s.jobNum(j.ID); n >= s.nextID {
			s.nextID = n + 1
		}
		if j.State == StateQueued {
			s.queue <- j
			s.jobLog(j).Info("job resumed from checkpoint",
				"units_done", j.done, "units_total", len(j.units))
		}
	}
	return s, nil
}

// jobLog derives the job's structured logger.
func (s *Server) jobLog(j *Job) *slog.Logger {
	return s.log.With("job", j.ID, "kind", j.Spec.Kind)
}

// jobNum parses the numeric part of a job ID ("j000042" → 42), or -1.
func (s *Server) jobNum(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, s.d.IDPrefix+"%d", &n); err != nil {
		return -1
	}
	return n
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Submit validates and admits one job. The spec is normalized in
// place; the returned job is queued (checkpointed first when
// persistence is on).
func (s *Server) Submit(spec Spec) (*Job, error) {
	k, err := admit(&spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	j := &Job{
		ID:        fmt.Sprintf("%s%06d", s.d.IDPrefix, s.nextID),
		Spec:      spec,
		State:     StateQueued,
		Submitted: time.Now(),
		units:     make([]json.RawMessage, k.units()),
		stream:    newStream(),
	}
	select {
	case s.queue <- j:
	default:
		return nil, ErrQueueFull
	}
	s.nextID++
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.persistLocked(j)
	s.jobLog(j).Info("job queued")
	return j, nil
}

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// StatusOf snapshots one job's status.
func (s *Server) StatusOf(id string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, false
	}
	return j.status(), true
}

// Statuses snapshots every job in submission order.
func (s *Server) Statuses() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Result returns a finished job's result bytes.
func (s *Server) Result(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || len(j.Result) == 0 {
		return nil, false
	}
	return j.Result, true
}

// SeriesOf returns a job's telemetry series for one sweep point
// (point 0 for single sims). Series are in-memory artifacts of the
// run that produced them: a job resumed from a checkpoint in a new
// process has none until it reruns.
func (s *Server) SeriesOf(id string, point int) (telemetry.Series, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return telemetry.Series{}, false
	}
	ser, ok := j.series[point]
	return ser, ok
}

// TraceOf returns a job's packet-lifecycle trace (Chrome trace-event
// JSON), recorded when the spec asked for one. In-memory only, like
// SeriesOf.
func (s *Server) TraceOf(id string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || len(j.trace) == 0 {
		return nil, false
	}
	return j.trace, true
}

// Cancel cancels a job: a queued job goes terminal immediately, a
// running one is aborted at its next cancellation point. Cancelling a
// terminal job is a no-op.
func (s *Server) Cancel(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, fmt.Errorf("serve: no job %q", id)
	}
	switch j.State {
	case StateQueued:
		s.finishLocked(j, StateCancelled, "cancelled before start", nil)
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.status(), nil
}

// worker drains the queue until it closes. During a drain, dequeued
// jobs are skipped — they stay queued on disk for the next daemon.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one dequeued job end to end.
func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	if s.draining || j.State != StateQueued {
		// Draining: leave it queued (already checkpointed) for the next
		// daemon. Cancelled-while-queued jobs were finished by Cancel.
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.State = StateRunning
	j.Started = time.Now()
	j.cancel = cancel
	run := &Run{ID: j.ID, Spec: j.Spec, Emit: j.stream.publish, Log: s.jobLog(j), s: s, j: j}
	s.running++
	s.mu.Unlock()

	j.stream.publish(stateEvent{Job: j.ID, Event: "state", State: StateRunning})
	run.Log.Info("job running")
	result, err := s.d.Exec(ctx, run)
	cancel()

	s.mu.Lock()
	defer s.mu.Unlock()
	s.running--
	var found *FoundError
	switch {
	case err == nil:
		s.finishLocked(j, StateDone, "", result)
	case errors.As(err, &found):
		s.finishLocked(j, StateFailed, err.Error(), result)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if s.draining {
			// Checkpointed units survive; the job resumes on restart.
			j.State = StateQueued
			j.Started = time.Time{}
			j.cancel = nil
			s.persistLocked(j)
			s.jobLog(j).Info("job checkpointed for resume",
				"units_done", j.done, "units_total", len(j.units))
		} else {
			s.finishLocked(j, StateCancelled, "cancelled", nil)
		}
	default:
		s.finishLocked(j, StateFailed, err.Error(), nil)
	}
}

// runLocal is spsd's Executor: runSpec in process, replaying the
// completed prefix of units and recording each new one after it
// through Run.CompleteUnit, as the fleet coordinator does.
func runLocal(ctx context.Context, r *Run) ([]byte, error) {
	units := r.Units()
	return runSpec(ctx, r.Spec, runEnv{
		id:         r.ID,
		workers:    r.s.cfg.JobParallelism,
		units:      units[:prefixLen(units)],
		saveUnit:   r.CompleteUnit,
		saveSeries: r.saveSeries,
		saveTrace:  r.saveTrace,
		emit:       r.Emit,
	})
}

// finishLocked moves a job to a terminal state, records its latency,
// persists it, and closes its stream. Caller holds s.mu.
func (s *Server) finishLocked(j *Job, st State, msg string, result []byte) {
	j.State = st
	j.Error = msg
	j.Result = result
	j.Finished = time.Now()
	j.cancel = nil
	if !j.Submitted.IsZero() {
		d := j.Finished.Sub(j.Submitted).Seconds()
		s.latency.Add(d)
		s.latencySum += d
	}
	s.persistLocked(j)
	j.stream.publish(stateEvent{Job: j.ID, Event: "state", State: st, Error: msg})
	j.stream.closeStream()
	l := s.jobLog(j)
	if msg != "" {
		l = l.With("error", msg)
	}
	l.Info("job finished", "state", st)
}

// persistLocked checkpoints the job, its units in the daemon's
// encoding, if persistence is on. Caller holds s.mu.
func (s *Server) persistLocked(j *Job) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	units, err := s.d.EncodeUnits(j.units)
	if err == nil {
		err = WriteCheckpointFile(s.cfg.CheckpointDir, Checkpoint{
			ID: j.ID, State: j.State, Error: j.Error, Spec: j.Spec, Units: units, Result: j.Result,
		})
	}
	if err != nil {
		s.jobLog(j).Warn("checkpoint write failed", "error", err)
	}
}

// Drain gracefully stops the server: it stops admitting, lets running
// jobs finish for the configured grace period (or until ctx is done,
// whichever comes first), then cancels the stragglers so they
// checkpoint, and waits for the worker pool to exit. Jobs still
// queued remain checkpointed as queued; nothing accepted is lost.
func (s *Server) Drain(ctx context.Context) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()
	s.log.Info("draining: admission closed", "grace", s.cfg.DrainGrace)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(s.cfg.DrainGrace)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		s.cancelJobs()
		<-done
	case <-ctx.Done():
		s.cancelJobs()
		<-done
	}
	s.log.Info("drained")
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
