package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"pbrouter/internal/corestats"
	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/sim"
	"pbrouter/internal/sps"
)

// The versioned read-side API the web dashboard (and any other
// programmatic consumer) drives. Everything here is a thin view over
// the same job table and serializers the legacy routes use: result
// bytes are returned verbatim, series and traces render through the
// exact telemetry writers behind the CLI flags, so payloads are
// byte-identical to the CLI twins by construction.

// apiRoutes mounts the /api/v1 surface on mux under prefix.
func (s *Server) apiRoutes(mux *http.ServeMux, prefix string) {
	mux.HandleFunc("POST "+prefix+"/jobs", s.handleSubmit)
	mux.HandleFunc("GET "+prefix+"/jobs", s.handleAPIJobs)
	mux.HandleFunc("GET "+prefix+"/jobs/{id}", s.handleAPIJob)
	mux.HandleFunc("DELETE "+prefix+"/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET "+prefix+"/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET "+prefix+"/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET "+prefix+"/jobs/{id}/series", s.handleAPISeries)
	mux.HandleFunc("GET "+prefix+"/jobs/{id}/trace", s.handleAPITrace)
	mux.HandleFunc("GET "+prefix+"/server", s.handleAPIServer)
	mux.HandleFunc("GET "+prefix+"/queue", s.handleAPIQueue)
	mux.HandleFunc("GET "+prefix+"/fleet", s.handleAPIFleet)
}

// ListQuery filters and pages GET /api/v1/jobs.
type ListQuery struct {
	State  State // "" = all
	Kind   Kind  // "" = all
	Offset int
	Limit  int // capped to maxListLimit; <=0 = default
}

const (
	defaultListLimit = 50
	maxListLimit     = 500
)

// JobList is the wire form of GET /api/v1/jobs: one page of job
// details, newest submission first, plus the total match count so
// clients can page.
type JobList struct {
	Jobs   []JobDetail `json:"jobs"`
	Total  int         `json:"total"`
	Offset int         `json:"offset"`
	Limit  int         `json:"limit"`
}

// List returns one page of jobs matching the query, newest first.
func (s *Server) List(q ListQuery) JobList {
	if q.Limit <= 0 {
		q.Limit = defaultListLimit
	}
	if q.Limit > maxListLimit {
		q.Limit = maxListLimit
	}
	if q.Offset < 0 {
		q.Offset = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ckpt := s.cfg.CheckpointDir != ""
	matched := make([]*Job, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- { // newest first
		j := s.jobs[s.order[i]]
		if q.State != "" && j.State != q.State {
			continue
		}
		if q.Kind != "" && j.Spec.Kind != q.Kind {
			continue
		}
		matched = append(matched, j)
	}
	out := JobList{Jobs: []JobDetail{}, Total: len(matched), Offset: q.Offset, Limit: q.Limit}
	for i := q.Offset; i < len(matched) && i < q.Offset+q.Limit; i++ {
		out.Jobs = append(out.Jobs, matched[i].detail(ckpt))
	}
	return out
}

// Detail snapshots one job's full wire form.
func (s *Server) Detail(id string) (JobDetail, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobDetail{}, false
	}
	return j.detail(s.cfg.CheckpointDir != ""), true
}

// QueueInfo is the wire form of GET /api/v1/queue: worker-pool and
// admission-queue introspection.
type QueueInfo struct {
	Depth    int      `json:"depth"`    // jobs admitted, not yet dequeued
	Capacity int      `json:"capacity"` // admission bound
	Workers  int      `json:"workers"`
	Running  []string `json:"running"` // job IDs currently executing
	Queued   []string `json:"queued"`  // job IDs waiting, oldest first
	Draining bool     `json:"draining"`
}

// Queue snapshots the admission queue and worker pool.
func (s *Server) Queue() QueueInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := QueueInfo{
		Depth:    len(s.queue),
		Capacity: cap(s.queue),
		Workers:  s.cfg.Workers,
		Running:  []string{},
		Queued:   []string{},
		Draining: s.draining,
	}
	for _, id := range s.order {
		switch s.jobs[id].State {
		case StateRunning:
			info.Running = append(info.Running, id)
		case StateQueued:
			info.Queued = append(info.Queued, id)
		}
	}
	sort.Strings(info.Running)
	return info
}

// GeometryInfo summarizes the reference design point the daemon's
// jobs default to (§2.2): the SPS dimensions and the per-switch
// configuration.
type GeometryInfo struct {
	Ribbons         int     `json:"ribbons"`     // N router ports
	FibersPerRibbon int     `json:"fibers"`      // F
	Switches        int     `json:"switches"`    // H parallel HBM switches
	Wavelengths     int     `json:"wavelengths"` // W per fiber
	ChannelGbps     float64 `json:"channel_gbps"`
	PortGbps        float64 `json:"port_gbps"` // per-switch port rate α·W·R
	Stacks          int     `json:"stacks"`    // HBM stacks per switch
	PackageTbps     float64 `json:"package_tbps"`
}

// ServerInfo is the wire form of GET /api/v1/server.
type ServerInfo struct {
	Service        string             `json:"service"`
	Version        string             `json:"version"`
	GoVersion      string             `json:"go_version"`
	UptimeSeconds  float64            `json:"uptime_seconds"`
	Draining       bool               `json:"draining"`
	Workers        int                `json:"workers"`
	JobParallelism int                `json:"job_parallelism"`
	QueueDepth     int                `json:"queue_depth"`
	QueueCapacity  int                `json:"queue_capacity"`
	Checkpointing  bool               `json:"checkpointing"`
	Scheduler      string             `json:"scheduler"` // default event-queue algorithm
	Geometry       GeometryInfo       `json:"geometry"`
	Core           corestats.Snapshot `json:"core"` // event-core internals since boot
}

// Info snapshots the daemon: build identity, pool sizing, the
// reference geometry, and the process-wide event-core counters.
func (s *Server) Info() ServerInfo {
	ref := sps.Reference()
	sw := hbmswitch.Reference()
	version := "devel"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	s.mu.Lock()
	info := ServerInfo{
		Service:        "spsd",
		Version:        version,
		GoVersion:      runtime.Version(),
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Draining:       s.draining,
		Workers:        s.cfg.Workers,
		JobParallelism: s.cfg.JobParallelism,
		QueueDepth:     len(s.queue),
		QueueCapacity:  cap(s.queue),
		Checkpointing:  s.cfg.CheckpointDir != "",
		Scheduler:      sim.Wheel.String(),
		Geometry: GeometryInfo{
			Ribbons:         ref.N,
			FibersPerRibbon: ref.F,
			Switches:        ref.H,
			Wavelengths:     ref.WDM.Wavelengths,
			ChannelGbps:     float64(ref.WDM.ChannelRate) / float64(sim.Gbps),
			PortGbps:        float64(sw.PortRate) / float64(sim.Gbps),
			Stacks:          sw.Geometry.Stacks,
			PackageTbps:     float64(ref.PackageIORate()) / float64(1000*sim.Gbps),
		},
		Core: corestats.Default.Snapshot(),
	}
	s.mu.Unlock()
	return info
}

func (s *Server) handleAPIJobs(w http.ResponseWriter, r *http.Request) {
	q := ListQuery{
		State: State(r.URL.Query().Get("state")),
		Kind:  Kind(r.URL.Query().Get("kind")),
	}
	var err error
	if q.Offset, err = queryInt(r, "offset", 0); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if q.Limit, err = queryInt(r, "limit", 0); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, s.List(q))
}

func (s *Server) handleAPIJob(w http.ResponseWriter, r *http.Request) {
	d, ok := s.Detail(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	WriteJSON(w, http.StatusOK, d)
}

// handleAPISeries serves one sweep point's telemetry series,
// serialized through telemetry.Series.WriteJSON/WriteCSV — the exact
// writers behind spssim -telemetry and spsresil -out, so the bytes
// match a CLI run at the same seed.
func (s *Server) handleAPISeries(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	point, err := queryInt(r, "point", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ser, ok := s.SeriesOf(id, point)
	if !ok {
		writeError(w, http.StatusNotFound, "no series for this job/point (artifacts are in-memory and per-run)")
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		ser.WriteJSON(w)
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		ser.WriteCSV(w)
	default:
		writeError(w, http.StatusBadRequest, "unknown format "+strconv.Quote(format)+" (json|csv)")
	}
}

// handleAPITrace serves the job's packet-lifecycle trace as a
// Chrome trace-event JSON download, openable in Perfetto.
func (s *Server) handleAPITrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Job(id); !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	trace, ok := s.TraceOf(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no trace for this job (submit with sim.trace_sample > 0)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="`+id+`-trace.json"`)
	w.Write(trace)
}

func (s *Server) handleAPIServer(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Info())
}

func (s *Server) handleAPIQueue(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Queue())
}

// FleetStatus is the wire form of GET /api/v1/fleet: the upstream
// coordinator's /fleet report verbatim (the fleet.Info shape) plus its
// spsfleet_* metric lines from the Prometheus exposition.
type FleetStatus struct {
	Fleet   json.RawMessage `json:"fleet"`
	Metrics []string        `json:"metrics"`
}

// handleAPIFleet proxies the configured spsfleet coordinator's /fleet
// report and metrics for the dashboard's fleet-health panel. The
// daemon stays a pure proxy: the report bytes are the coordinator's
// own, so the panel shows exactly what `curl $fleet/fleet` shows.
func (s *Server) handleAPIFleet(w http.ResponseWriter, r *http.Request) {
	base := strings.TrimRight(s.cfg.FleetURL, "/")
	if base == "" {
		writeError(w, http.StatusNotFound, "no fleet coordinator configured (start spsd with -fleet URL)")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	info, err := fleetGET(ctx, base+"/fleet")
	if err != nil {
		writeError(w, http.StatusBadGateway, "fleet coordinator unreachable: "+err.Error())
		return
	}
	if !json.Valid(info) {
		writeError(w, http.StatusBadGateway, "fleet coordinator returned invalid JSON")
		return
	}
	st := FleetStatus{Fleet: json.RawMessage(info), Metrics: []string{}}
	// Metrics are best-effort: a coordinator that predates /metrics
	// still renders the backend table.
	if raw, err := fleetGET(ctx, base+"/metrics"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "spsfleet_") {
				st.Metrics = append(st.Metrics, line)
			}
		}
	}
	WriteJSON(w, http.StatusOK, st)
}

// fleetGET fetches one coordinator endpoint with a bounded body read.
func fleetGET(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s returned %s", url, resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 1<<20))
}

// queryInt parses an optional non-negative integer query parameter.
func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, &badQueryError{name: name, value: v}
	}
	return n, nil
}

type badQueryError struct{ name, value string }

func (e *badQueryError) Error() string {
	return "bad query parameter " + e.name + "=" + strconv.Quote(e.value) + " (want a non-negative integer)"
}
