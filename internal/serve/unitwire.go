package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// The unit wire protocol: how a fleet coordinator runs one checkpoint
// unit on a backend daemon. POST /units takes a UnitRequest and
// streams NDJSON UnitEvents — "start" on admission, "heartbeat" while
// computing (so a dead or stalled backend is distinguishable from a
// slow one), and finally exactly one "unit_result" carrying the raw
// unit payload, or "error". A stream that ends without a terminal
// event was truncated; the client reports it so the caller can retry
// the unit on a surviving backend.

// UnitRequest is the body of POST /units.
type UnitRequest struct {
	Spec Spec `json:"spec"`
	Unit int  `json:"unit"`
}

// Unit stream event kinds.
const (
	UnitEventStart     = "start"
	UnitEventHeartbeat = "heartbeat"
	UnitEventResult    = "unit_result"
	UnitEventError     = "error"
)

// UnitEvent is one NDJSON line of a unit stream. Payload is opaque
// bytes (base64 on the wire, via encoding/json's []byte rule): unit
// payloads must round-trip byte-exact — for sim and sweep the payload
// IS the final result JSON — and embedding them as raw JSON would let
// the encoder compact and HTML-escape them in transit.
type UnitEvent struct {
	Event   string `json:"event"`
	Unit    int    `json:"unit,omitempty"`
	Payload []byte `json:"payload,omitempty"`
	Error   string `json:"error,omitempty"`
}

// ParseUnitEvent parses one NDJSON line of a unit stream, rejecting
// unknown event kinds and terminal events without their payload.
func ParseUnitEvent(line []byte) (UnitEvent, error) {
	var ev UnitEvent
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ev); err != nil {
		return UnitEvent{}, fmt.Errorf("serve: bad unit event: %w", err)
	}
	switch ev.Event {
	case UnitEventStart, UnitEventHeartbeat:
	case UnitEventResult:
		if len(ev.Payload) == 0 {
			return UnitEvent{}, fmt.Errorf("serve: unit_result event without payload")
		}
	case UnitEventError:
		if ev.Error == "" {
			return UnitEvent{}, fmt.Errorf("serve: error event without message")
		}
	default:
		return UnitEvent{}, fmt.Errorf("serve: unknown unit event %q", ev.Event)
	}
	return ev, nil
}

// unitHeartbeat is how often a running unit stream emits a heartbeat
// line. Wall-clock only — heartbeats never touch results.
const unitHeartbeat = 250 * time.Millisecond

// handleUnits runs one unit synchronously and streams its lifecycle.
// Concurrency is bounded by the same worker count as the job pool;
// admission blocks (backpressure is the fleet's latency signal) and
// respects client disconnect.
func (s *Server) handleUnits(w http.ResponseWriter, r *http.Request) {
	var req UnitRequest
	if !decodeBody(w, r, &req, "bad unit request") {
		return
	}
	k, err := admit(&req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if n := k.units(); req.Unit < 0 || req.Unit >= n {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unit %d out of range 0..%d", req.Unit, n-1))
		return
	}
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, ErrDraining.Error())
		return
	}
	select {
	case s.unitSem <- struct{}{}:
		defer func() { <-s.unitSem }()
	case <-r.Context().Done():
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var wmu sync.Mutex
	emit := func(ev UnitEvent) {
		wmu.Lock()
		defer wmu.Unlock()
		b, err := json.Marshal(ev)
		if err != nil {
			return
		}
		w.Write(append(b, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit(UnitEvent{Event: UnitEventStart, Unit: req.Unit})

	// The heartbeat goroutine must be gone before the handler returns:
	// a write after that races the server recycling the response.
	hbDone, hbExited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(hbExited)
		t := time.NewTicker(unitHeartbeat)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				emit(UnitEvent{Event: UnitEventHeartbeat})
			case <-hbDone:
				return
			}
		}
	}()

	start := time.Now()
	payload, err := RunUnit(r.Context(), req.Spec, req.Unit, s.cfg.JobParallelism)
	close(hbDone)
	<-hbExited
	log := s.log.With("kind", req.Spec.Kind, "unit", req.Unit)
	if err != nil {
		emit(UnitEvent{Event: UnitEventError, Unit: req.Unit, Error: err.Error()})
		log.Warn("unit failed", "error", err, "duration", time.Since(start))
		return
	}
	emit(UnitEvent{Event: UnitEventResult, Unit: req.Unit, Payload: payload})
	log.Debug("unit served", "duration", time.Since(start))
}

// RemoteUnitError is a failure the backend itself reported over a
// healthy connection — the unit ran and deterministically failed, so
// retrying it elsewhere would fail the same way.
type RemoteUnitError struct{ Msg string }

func (e *RemoteUnitError) Error() string { return "backend reported: " + e.Msg }

// maxUnitLine bounds one NDJSON line of a unit stream; validate chunk
// payloads with shrunk reproducers can run to megabytes.
const maxUnitLine = 64 << 20

// FetchUnit runs one unit on the backend at base ("http://host:port")
// and returns its raw payload. idle bounds the silence between stream
// lines: the backend heartbeats every 250ms while computing, so an
// idle expiry means the backend (or the path to it) is dead or
// stalled, not slow. All transport-level failures — connect errors,
// non-200 statuses, idle expiry, unparsable events, truncated streams
// — are returned as ordinary errors and are retryable on another
// backend; a *RemoteUnitError is the backend's own verdict and is
// not.
func FetchUnit(ctx context.Context, hc *http.Client, base string, spec Spec, unit int, idle time.Duration) (json.RawMessage, error) {
	body, err := json.Marshal(UnitRequest{Spec: spec, Unit: unit})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(base, "/")+"/units", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("unit %d: HTTP %d: %s", unit, resp.StatusCode, strings.TrimSpace(string(b)))
	}

	// Idle watchdog: any stream line resets it; expiry cancels the
	// request so the blocked read returns.
	var timedOut bool
	var mu sync.Mutex
	watchdog := time.AfterFunc(idle, func() {
		mu.Lock()
		timedOut = true
		mu.Unlock()
		cancel()
	})
	defer watchdog.Stop()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), maxUnitLine)
	for sc.Scan() {
		watchdog.Reset(idle)
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		ev, err := ParseUnitEvent(line)
		if err != nil {
			return nil, err
		}
		switch ev.Event {
		case UnitEventResult:
			return ev.Payload, nil
		case UnitEventError:
			return nil, &RemoteUnitError{Msg: ev.Error}
		}
	}
	mu.Lock()
	expired := timedOut
	mu.Unlock()
	if expired {
		return nil, fmt.Errorf("unit %d: stream idle for %v (backend dead or stalled)", unit, idle)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("unit %d: stream broken: %w", unit, err)
	}
	return nil, fmt.Errorf("unit %d: stream truncated before a terminal event", unit)
}

// CheckHealth probes a backend daemon's /healthz.
func CheckHealth(ctx context.Context, hc *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimRight(base, "/")+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}
