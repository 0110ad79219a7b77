package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"pbrouter/internal/web"
)

// maxSpecBytes bounds a submitted job spec or unit request; larger
// bodies get 413.
const maxSpecBytes = 1 << 20

// Handler returns spsd's HTTP API: the job routes (JobRoutes) plus
//
//	POST   /units             run one checkpoint unit (fleet dispatch)
//	GET    /metrics           Prometheus text format
//
// and the versioned read-side API under Config.APIPrefix (default
// /api/v1 — see apiRoutes) and, with Config.UI, the embedded web
// dashboard at /. Every request passes through the request-ID and
// access-log middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.JobRoutes(mux)
	mux.HandleFunc("POST /units", s.handleUnits)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.apiRoutes(mux, s.cfg.APIPrefix)
	if s.cfg.UI {
		mux.Handle("GET /", http.FileServerFS(web.Assets()))
	}
	return s.withRequestLog(mux)
}

// JobRoutes mounts the job surface every daemon built on Server
// serves:
//
//	POST   /jobs              submit a job spec, 202 + status
//	GET    /jobs              list every job's status
//	GET    /jobs/{id}         one job's status
//	DELETE /jobs/{id}         cancel a job
//	GET    /jobs/{id}/result  the finished job's result JSON, verbatim
//	GET    /jobs/{id}/stream  NDJSON event stream (follows until done)
//	GET    /healthz           liveness (503 once draining)
func (s *Server) JobRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// withRequestLog assigns every request a monotonically increasing ID
// (echoed as X-Request-ID) and logs method, path, status, and
// duration at debug level — errors at warn.
func (s *Server) withRequestLog(next http.Handler) http.Handler {
	var nextID atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := nextID.Add(1)
		rid := "r" + strconv.FormatUint(id, 10)
		w.Header().Set("X-Request-ID", rid)
		lw := &logResponseWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(lw, r)
		l := s.log.With("request", rid, "method", r.Method, "path", r.URL.Path,
			"status", lw.status, "duration", time.Since(start))
		if lw.status >= 500 {
			l.Warn("request failed")
		} else {
			l.Debug("request served")
		}
	})
}

// logResponseWriter captures the status code for the access log. It
// forwards Flush so NDJSON streaming keeps working through the
// middleware.
type logResponseWriter struct {
	http.ResponseWriter
	status int
}

func (w *logResponseWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *logResponseWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// WriteJSON writes v, indented, with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// apiError is the error envelope every non-2xx JSON response uses.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, apiError{Error: msg})
}

// decodeBody decodes a JSON request body of at most maxSpecBytes into
// v, refusing unknown fields. On failure it answers in the error
// envelope, 413 for an oversized body and 400 otherwise, with the
// message prefixed by what, and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, what+": "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if !decodeBody(w, r, &spec, "bad job spec") {
		return
	}
	j, err := s.Submit(spec)
	switch {
	case err == nil:
		st, _ := s.StatusOf(j.ID) // re-snapshot under the lock
		WriteJSON(w, http.StatusAccepted, st)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Statuses())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.StatusOf(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	res, ok := s.Result(id)
	if !ok {
		writeError(w, http.StatusConflict, "job has no result yet")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(res)
}

// handleStream serves the job's NDJSON event stream: the full backlog
// first, then live events until the job reaches a terminal state or
// the client disconnects.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	i := 0
	for {
		lines, done, wait := j.stream.next(i)
		for _, line := range lines {
			if _, err := w.Write(append(line, '\n')); err != nil {
				return
			}
		}
		i += len(lines)
		if len(lines) > 0 {
			if flusher != nil {
				flusher.Flush()
			}
			continue
		}
		if done {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := struct {
		Status   string `json:"status"`
		Draining bool   `json:"draining"`
		Jobs     int    `json:"jobs"`
	}{Status: "ok", Draining: s.draining, Jobs: len(s.jobs)}
	s.mu.Unlock()
	code := http.StatusOK
	if h.Draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, h)
}
