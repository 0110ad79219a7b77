// Package fleet implements the spsfleet coordinator: a daemon that
// accepts the same job specs as spsd, decomposes each job into its
// checkpoint units, dispatches those units over HTTP to a fleet of
// registered spsd backends under a pluggable scheduler, and
// reassembles the results byte-identically to a single-node run at
// the same seed.
//
// The job lifecycle — admission queue, worker pool, cancel, drain,
// NDJSON streams, checkpoints, the job routes and metrics — is spsd's
// own serve.Server. The coordinator hands it one serve.Executor, which
// runs a job's pending units over the backends and assembles them, and
// one on-disk unit encoding: fleet units complete out of order, so
// checkpoints store {"unit":N,"payload":...} envelopes instead of
// spsd's prefix-ordered raw payloads. What stays here is fleet-only:
// the backends, their health probes, the scheduler, and /fleet.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"pbrouter/internal/serve"
)

// Config tunes a Coordinator. Backends is required; everything else
// has a usable default.
type Config struct {
	// Backends are the spsd base URLs units are dispatched to.
	// Required, at least one.
	Backends []string
	// Scheduler names the dispatch policy (SchedulerNames). Default
	// p2c.
	Scheduler string
	// Seed seeds the scheduler's RNG; dispatch sequences are
	// deterministic per (policy, seed, observation sequence). Default 1.
	Seed int64
	// QueueDepth bounds the admission queue. Default 64.
	QueueDepth int
	// Workers is the number of jobs run concurrently. Default 2.
	Workers int
	// Fanout bounds concurrent unit dispatches per job. Default
	// len(Backends).
	Fanout int
	// UnitAttempts is how many dispatch attempts a unit gets before
	// the job fails. Default 8.
	UnitAttempts int
	// RetryBackoff is the pause between a unit's dispatch attempts.
	// Default 50ms.
	RetryBackoff time.Duration
	// UnitIdleTimeout is how long the unit stream may go silent
	// (heartbeats included) before the dispatch counts as failed.
	// Default 10s.
	UnitIdleTimeout time.Duration
	// HealthInterval is the backend health-probe period; probes revive
	// backends marked down by failed dispatches. Default 1s.
	HealthInterval time.Duration
	// CheckpointDir persists jobs for resume-on-restart; empty
	// disables persistence.
	CheckpointDir string
	// DrainGrace is how long Drain lets running jobs finish before
	// cancelling them to checkpoint. Default 10s.
	DrainGrace time.Duration
	// Logger receives structured operational logs; nil discards them.
	Logger *slog.Logger
	// HTTPClient performs backend requests; nil uses a plain client.
	HTTPClient *http.Client
}

// backend is the coordinator's dispatch state for one spsd. Guarded
// by the Coordinator's mutex.
type backend struct {
	url      string
	alive    bool
	inflight int     // units currently dispatched to it
	latency  float64 // unit-latency EWMA in seconds; 0 until sampled
	picks    int
	unitsOK  int
	unitsErr int
}

// ewmaAlpha weights new unit-latency samples into a backend's
// estimate.
const ewmaAlpha = 0.2

// Coordinator owns the backend fleet state and the scheduler, and
// runs its jobs on a serve.Server. Create with New, start with Start,
// serve its Handler, stop with Drain.
type Coordinator struct {
	srv   *serve.Server
	cfg   Config
	log   *slog.Logger
	httpc *http.Client

	probeCtx  context.Context
	stopProbe context.CancelFunc
	probeWG   sync.WaitGroup

	mu         sync.Mutex // guards the dispatch state below
	sched      Scheduler
	rng        *rand.Rand
	backends   []*backend
	retries    int // failed dispatch attempts that were retried
	duplicates int // units completed more than once (late retries)

	started time.Time
}

// New builds a coordinator, loading any checkpointed jobs from
// cfg.CheckpointDir: unfinished ones re-enter the queue with their
// completed units intact, finished ones serve their results again.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("fleet: at least one backend is required")
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = SchedP2C
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = len(cfg.Backends)
	}
	if cfg.UnitAttempts <= 0 {
		cfg.UnitAttempts = 8
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.UnitIdleTimeout <= 0 {
		cfg.UnitIdleTimeout = 10 * time.Second
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard,
			&slog.HandlerOptions{Level: slog.Level(127)}))
	}
	httpc := cfg.HTTPClient
	if httpc == nil {
		httpc = &http.Client{}
	}
	sched, err := NewScheduler(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:       cfg,
		log:       log,
		httpc:     httpc,
		probeCtx:  ctx,
		stopProbe: cancel,
		sched:     sched,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		started:   time.Now(),
	}
	for _, url := range cfg.Backends {
		c.backends = append(c.backends, &backend{url: url, alive: true})
	}
	c.srv, err = serve.NewDaemon(serve.Config{
		QueueDepth:    cfg.QueueDepth,
		Workers:       cfg.Workers,
		CheckpointDir: cfg.CheckpointDir,
		DrainGrace:    cfg.DrainGrace,
		Logger:        log,
	}, serve.Daemon{
		Name: "spsfleet", Role: "coordinator", IDPrefix: "f", Exec: c.run,
		EncodeUnits: encodeUnits, DecodeUnits: decodeUnits,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	return c, nil
}

// Start launches the worker pool and the backend health prober.
func (c *Coordinator) Start() {
	c.srv.Start()
	c.probeWG.Add(1)
	go c.healthLoop()
}

// Drain gracefully stops the coordinator: admission closes, running
// jobs get the grace period (or until ctx is done) to finish, then
// stragglers are cancelled so they checkpoint their completed units;
// last, the health prober stops.
func (c *Coordinator) Drain(ctx context.Context) {
	c.srv.Drain(ctx)
	c.stopProbe()
	c.probeWG.Wait()
}

// The job API is the underlying serve.Server's.

// Submit validates and admits one job.
func (c *Coordinator) Submit(spec serve.Spec) (*serve.Job, error) { return c.srv.Submit(spec) }

// Job returns a job by ID.
func (c *Coordinator) Job(id string) (*serve.Job, bool) { return c.srv.Job(id) }

// StatusOf snapshots one job's status.
func (c *Coordinator) StatusOf(id string) (serve.Status, bool) { return c.srv.StatusOf(id) }

// Statuses snapshots every job in submission order.
func (c *Coordinator) Statuses() []serve.Status { return c.srv.Statuses() }

// Result returns a finished job's result bytes.
func (c *Coordinator) Result(id string) ([]byte, bool) { return c.srv.Result(id) }

// Cancel cancels a queued or running job.
func (c *Coordinator) Cancel(id string) (serve.Status, error) { return c.srv.Cancel(id) }

// Draining reports whether the coordinator has begun shutting down.
func (c *Coordinator) Draining() bool { return c.srv.Draining() }

// healthLoop probes every backend each HealthInterval, reviving
// backends marked down by failed dispatches once they answer
// /healthz again, and downing ones that stop answering.
func (c *Coordinator) healthLoop() {
	defer c.probeWG.Done()
	ticker := time.NewTicker(c.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.probeCtx.Done():
			return
		case <-ticker.C:
		}
		for i := range c.backends {
			c.mu.Lock()
			url, was := c.backends[i].url, c.backends[i].alive
			c.mu.Unlock()
			ctx, cancel := context.WithTimeout(c.probeCtx, c.cfg.HealthInterval)
			err := serve.CheckHealth(ctx, c.httpc, url)
			cancel()
			alive := err == nil
			c.mu.Lock()
			c.backends[i].alive = alive
			c.mu.Unlock()
			if alive != was {
				c.log.Info("backend health changed", "backend", url, "alive", alive)
			}
		}
	}
}

// unitEnvelope is how fleet checkpoints store completed units: units
// finish out of order, so each payload carries its unit number. The
// payload is opaque bytes (base64 in the checkpoint file) for the
// same reason as on the wire — for sim and sweep it is the final
// result JSON, and re-indenting it through the checkpoint encoder
// would break byte identity on resume.
type unitEnvelope struct {
	Unit    int    `json:"unit"`
	Payload []byte `json:"payload"`
}

// encodeUnits stores each completed unit as an envelope carrying its
// unit number.
func encodeUnits(units []json.RawMessage) ([]json.RawMessage, error) {
	var entries []json.RawMessage
	for u, payload := range units {
		if payload == nil {
			continue
		}
		env, err := json.Marshal(unitEnvelope{Unit: u, Payload: payload})
		if err != nil {
			return nil, err
		}
		entries = append(entries, env)
	}
	return entries, nil
}

// decodeUnits slots checkpointed envelopes back by unit number.
func decodeUnits(entries []json.RawMessage, n int) ([]json.RawMessage, error) {
	units := make([]json.RawMessage, n)
	for _, raw := range entries {
		var env unitEnvelope
		if err := json.Unmarshal(raw, &env); err != nil {
			return nil, fmt.Errorf("bad unit envelope: %w", err)
		}
		if env.Unit < 0 || env.Unit >= n || env.Payload == nil {
			return nil, fmt.Errorf("unit %d out of range", env.Unit)
		}
		if units[env.Unit] == nil {
			units[env.Unit] = env.Payload
		}
	}
	return units, nil
}
