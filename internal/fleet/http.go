package fleet

import (
	"fmt"
	"net/http"
	"time"

	"pbrouter/internal/serve"
)

// Handler returns the coordinator's HTTP API: spsd's job routes
// (serve.Server.JobRoutes), so spsload and scripts work against
// either daemon, plus
//
//	GET    /fleet             backend fleet report (Info)
//	GET    /metrics           Prometheus text format
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	c.srv.JobRoutes(mux)
	mux.HandleFunc("GET /fleet", c.handleFleet)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	return mux
}

// BackendStatus is one backend's dispatch state in the fleet report.
type BackendStatus struct {
	URL                string  `json:"url"`
	Alive              bool    `json:"alive"`
	Inflight           int     `json:"inflight"`
	LatencyEWMASeconds float64 `json:"latency_ewma_seconds"`
	Picks              int     `json:"picks"`
	UnitsOK            int     `json:"units_ok"`
	UnitsErr           int     `json:"units_err"`
}

// Info is the GET /fleet report: coordinator identity plus every
// backend's live dispatch state.
type Info struct {
	Service        string          `json:"service"` // "spsfleet"
	Scheduler      string          `json:"scheduler"`
	Draining       bool            `json:"draining"`
	UptimeSeconds  float64         `json:"uptime_seconds"`
	UnitRetries    int             `json:"unit_retries"`
	DuplicateUnits int             `json:"duplicate_units"`
	Backends       []BackendStatus `json:"backends"`
}

// FleetInfo snapshots the coordinator's fleet state.
func (c *Coordinator) FleetInfo() Info {
	draining := c.srv.Draining()
	c.mu.Lock()
	defer c.mu.Unlock()
	info := Info{
		Service:        "spsfleet",
		Scheduler:      c.sched.Name(),
		Draining:       draining,
		UptimeSeconds:  time.Since(c.started).Seconds(),
		UnitRetries:    c.retries,
		DuplicateUnits: c.duplicates,
	}
	for _, b := range c.backends {
		info.Backends = append(info.Backends, BackendStatus{
			URL:                b.url,
			Alive:              b.alive,
			Inflight:           b.inflight,
			LatencyEWMASeconds: b.latency,
			Picks:              b.picks,
			UnitsOK:            b.unitsOK,
			UnitsErr:           b.unitsErr,
		})
	}
	return info
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.FleetInfo())
}

// handleMetrics renders coordinator metrics in the Prometheus text
// exposition format: the job families under the spsfleet_ prefix,
// plus per-backend dispatch gauges and counters.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.srv.WriteJobMetrics(w)
	c.mu.Lock()
	retries := c.retries
	duplicates := c.duplicates
	type bsnap struct {
		url      string
		alive    bool
		inflight int
		latency  float64
		picks    int
		unitsOK  int
		unitsErr int
	}
	var bs []bsnap
	for _, b := range c.backends {
		bs = append(bs, bsnap{b.url, b.alive, b.inflight, b.latency, b.picks, b.unitsOK, b.unitsErr})
	}
	c.mu.Unlock()

	fmt.Fprintf(w, "# HELP spsfleet_unit_retries_total Unit dispatches retried after transport failure.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_unit_retries_total counter\n")
	fmt.Fprintf(w, "spsfleet_unit_retries_total %d\n", retries)
	fmt.Fprintf(w, "# HELP spsfleet_duplicate_units_total Units completed more than once by late retries.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_duplicate_units_total counter\n")
	fmt.Fprintf(w, "spsfleet_duplicate_units_total %d\n", duplicates)
	fmt.Fprintf(w, "# HELP spsfleet_backend_up Whether the backend answers health probes.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_backend_up gauge\n")
	for _, b := range bs {
		up := 0
		if b.alive {
			up = 1
		}
		fmt.Fprintf(w, "spsfleet_backend_up{backend=%q} %d\n", b.url, up)
	}
	fmt.Fprintf(w, "# HELP spsfleet_backend_inflight Units currently dispatched to the backend.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_backend_inflight gauge\n")
	for _, b := range bs {
		fmt.Fprintf(w, "spsfleet_backend_inflight{backend=%q} %d\n", b.url, b.inflight)
	}
	fmt.Fprintf(w, "# HELP spsfleet_backend_latency_seconds Unit-latency EWMA per backend.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_backend_latency_seconds gauge\n")
	for _, b := range bs {
		fmt.Fprintf(w, "spsfleet_backend_latency_seconds{backend=%q} %g\n", b.url, b.latency)
	}
	fmt.Fprintf(w, "# HELP spsfleet_backend_picks_total Scheduler picks per backend.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_backend_picks_total counter\n")
	for _, b := range bs {
		fmt.Fprintf(w, "spsfleet_backend_picks_total{backend=%q} %d\n", b.url, b.picks)
	}
	fmt.Fprintf(w, "# HELP spsfleet_backend_units_total Unit dispatch outcomes per backend.\n")
	fmt.Fprintf(w, "# TYPE spsfleet_backend_units_total counter\n")
	for _, b := range bs {
		fmt.Fprintf(w, "spsfleet_backend_units_total{backend=%q,result=\"ok\"} %d\n", b.url, b.unitsOK)
		fmt.Fprintf(w, "spsfleet_backend_units_total{backend=%q,result=\"err\"} %d\n", b.url, b.unitsErr)
	}
}
