package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pbrouter/internal/serve"
)

// run is the coordinator's serve.Executor: dispatch every pending
// unit over the fleet, then assemble the payloads through the same
// serializer paths a single-node run uses — so the result bytes are
// identical.
func (c *Coordinator) run(ctx context.Context, r *serve.Run) ([]byte, error) {
	var pending []int
	for u, payload := range r.Units() {
		if payload == nil {
			pending = append(pending, u)
		}
	}
	if err := c.runUnits(ctx, r, pending); err != nil {
		return nil, err
	}
	return serve.AssembleUnits(r.Spec, r.Units())
}

// runUnits fans the pending units over at most Fanout concurrent
// dispatchers. The first terminal error cancels the rest.
func (c *Coordinator) runUnits(ctx context.Context, r *serve.Run, pending []int) error {
	if len(pending) == 0 {
		return ctx.Err()
	}
	fan := c.cfg.Fanout
	if fan > len(pending) {
		fan = len(pending)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	work := make(chan int)
	go func() {
		defer close(work)
		for _, u := range pending {
			select {
			case work <- u:
			case <-ctx.Done():
				return
			}
		}
	}()
	errc := make(chan error, fan)
	done := make(chan struct{})
	for i := 0; i < fan; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for u := range work {
				if err := c.dispatchUnit(ctx, r, u); err != nil {
					select {
					case errc <- err:
					default:
					}
					cancel()
					return
				}
			}
		}()
	}
	for i := 0; i < fan; i++ {
		<-done
	}
	select {
	case err := <-errc:
		return err
	default:
	}
	return ctx.Err()
}

// dispatchUnit runs one unit to completion: pick a live backend,
// fetch the unit, and on transport failure retry on the survivors —
// avoiding the backend that just failed when any alternative exists.
// A backend-reported error is the job's own deterministic verdict and
// fails fast without retries.
func (c *Coordinator) dispatchUnit(ctx context.Context, r *serve.Run, u int) error {
	lastFailed := -1
	noBackends := false
	var lastErr error
	for attempt := 0; attempt < c.cfg.UnitAttempts; attempt++ {
		if attempt > 0 {
			wait := c.cfg.RetryBackoff
			if noBackends {
				// Nothing to dispatch to: give the health prober a full
				// period to revive someone before burning the next attempt.
				wait += c.cfg.HealthInterval
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		idx, url, ok := c.pickBackend(lastFailed)
		if !ok {
			lastFailed = -1
			noBackends = true
			lastErr = errors.New("no live backends")
			continue
		}
		noBackends = false
		start := time.Now()
		payload, err := serve.FetchUnit(ctx, c.httpc, url, r.Spec, u, c.cfg.UnitIdleTimeout)
		lat := time.Since(start).Seconds()
		var remote *serve.RemoteUnitError
		switch {
		case err == nil:
			c.completeUnit(r, u, idx, lat, payload)
			return nil
		case errors.As(err, &remote):
			// The backend ran the unit and reported a deterministic
			// failure; every backend would. Fail the job, not the backend.
			c.settleUnit(idx, lat, false, false)
			return err
		case ctx.Err() != nil:
			c.settleUnit(idx, lat, false, false)
			return ctx.Err()
		default:
			// Transport failure: backend died, stalled, or truncated the
			// stream. Down it (the prober revives it) and retry elsewhere.
			c.settleUnit(idx, lat, false, true)
			r.Log.Warn("unit dispatch failed, retrying",
				"unit", u, "backend", url, "attempt", attempt+1, "error", err)
			lastFailed = idx
			lastErr = err
		}
	}
	return fmt.Errorf("fleet: unit %d of %s failed after %d attempts: %w",
		u, r.ID, c.cfg.UnitAttempts, lastErr)
}

// pickBackend asks the scheduler to choose among the live backends,
// excluding the just-failed one when any alternative exists, and
// reserves an inflight slot on the pick.
func (c *Coordinator) pickBackend(exclude int) (idx int, url string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cands := make([]BackendInfo, 0, len(c.backends))
	for i, b := range c.backends {
		if b.alive && i != exclude {
			cands = append(cands, BackendInfo{Index: i, Inflight: b.inflight, Latency: b.latency})
		}
	}
	if len(cands) == 0 && exclude >= 0 && c.backends[exclude].alive {
		// The failed backend is the only live one left — use it.
		b := c.backends[exclude]
		cands = append(cands, BackendInfo{Index: exclude, Inflight: b.inflight, Latency: b.latency})
	}
	if len(cands) == 0 {
		return 0, "", false
	}
	idx = c.sched.Pick(cands, c.rng)
	b := c.backends[idx]
	b.inflight++
	b.picks++
	return idx, b.url, true
}

// settleUnit releases a failed dispatch's inflight slot and tells the
// scheduler; markDown also takes the backend out of rotation until
// the health prober revives it.
func (c *Coordinator) settleUnit(idx int, lat float64, ok, markDown bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.backends[idx]
	b.inflight--
	b.unitsErr++
	if markDown {
		b.alive = false
		c.retries++
	}
	c.sched.Observe(idx, lat, ok)
}

// completeUnit records a successful dispatch: latency EWMA,
// scheduler feedback, and the payload itself, which the job server
// checkpoints and announces — unless a late duplicate from a retried
// unit got there first.
func (c *Coordinator) completeUnit(r *serve.Run, u, idx int, lat float64, payload []byte) {
	c.mu.Lock()
	b := c.backends[idx]
	b.inflight--
	b.unitsOK++
	if b.latency == 0 {
		b.latency = lat
	} else {
		b.latency = (1-ewmaAlpha)*b.latency + ewmaAlpha*lat
	}
	c.sched.Observe(idx, lat, true)
	c.mu.Unlock()
	if !r.CompleteUnit(u, payload) {
		c.mu.Lock()
		c.duplicates++
		c.mu.Unlock()
	}
}
