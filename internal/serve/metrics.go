package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"pbrouter/internal/corestats"
)

// handleMetrics renders spsd's operational metrics in the Prometheus
// text exposition format: the job families, then the event core's.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.WriteJobMetrics(w)
	writeCoreMetrics(w, corestats.Default.Snapshot())
}

// WriteJobMetrics starts a Prometheus text response with the job
// families every daemon exports under its name: up, uptime, queue
// depth, in-flight and per-state job counts, and the
// submit-to-complete latency histogram (stats.Histogram quantiles
// plus sum/count).
func (s *Server) WriteJobMetrics(w http.ResponseWriter) {
	s.mu.Lock()
	queueDepth := len(s.queue)
	queueCap := cap(s.queue)
	running := s.running
	states := make(map[State]int)
	for _, j := range s.jobs {
		states[j.State]++
	}
	latN := s.latency.N()
	latSum := s.latencySum
	quantiles := map[string]float64{}
	if latN > 0 {
		for _, q := range []float64{0.5, 0.95, 0.99} {
			quantiles[fmt.Sprintf("%g", q)] = s.latency.Percentile(q)
		}
	}
	uptime := time.Since(s.started).Seconds()
	s.mu.Unlock()

	p, role := s.d.Name, s.d.Role
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "# HELP %s_up Whether the %s is serving.\n", p, role)
	fmt.Fprintf(w, "# TYPE %s_up gauge\n", p)
	fmt.Fprintf(w, "%s_up 1\n", p)
	fmt.Fprintf(w, "# HELP %s_uptime_seconds %s uptime.\n", p, strings.ToUpper(role[:1])+role[1:])
	fmt.Fprintf(w, "# TYPE %s_uptime_seconds counter\n", p)
	fmt.Fprintf(w, "%s_uptime_seconds %g\n", p, uptime)
	fmt.Fprintf(w, "# HELP %s_queue_depth Jobs admitted but not yet running.\n", p)
	fmt.Fprintf(w, "# TYPE %s_queue_depth gauge\n", p)
	fmt.Fprintf(w, "%s_queue_depth %d\n", p, queueDepth)
	fmt.Fprintf(w, "# HELP %s_queue_capacity Admission queue bound.\n", p)
	fmt.Fprintf(w, "# TYPE %s_queue_capacity gauge\n", p)
	fmt.Fprintf(w, "%s_queue_capacity %d\n", p, queueCap)
	fmt.Fprintf(w, "# HELP %s_jobs_inflight Jobs currently executing.\n", p)
	fmt.Fprintf(w, "# TYPE %s_jobs_inflight gauge\n", p)
	fmt.Fprintf(w, "%s_jobs_inflight %d\n", p, running)
	fmt.Fprintf(w, "# HELP %s_jobs_total Jobs by lifecycle state.\n", p)
	fmt.Fprintf(w, "# TYPE %s_jobs_total gauge\n", p)
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "%s_jobs_total{state=%q} %d\n", p, st, states[st])
	}
	fmt.Fprintf(w, "# HELP %s_job_latency_seconds Submit-to-complete latency of finished jobs.\n", p)
	fmt.Fprintf(w, "# TYPE %s_job_latency_seconds summary\n", p)
	qs := make([]string, 0, len(quantiles))
	for q := range quantiles {
		qs = append(qs, q)
	}
	sort.Strings(qs)
	for _, q := range qs {
		fmt.Fprintf(w, "%s_job_latency_seconds{quantile=%q} %g\n", p, q, quantiles[q])
	}
	fmt.Fprintf(w, "%s_job_latency_seconds_sum %g\n", p, latSum)
	fmt.Fprintf(w, "%s_job_latency_seconds_count %d\n", p, latN)
}

// writeCoreMetrics renders the event core's process-wide counters:
// what the timing wheel, the unit pools, and the sharded runner's
// epoch barrier have done across every simulation since boot.
func writeCoreMetrics(w http.ResponseWriter, c corestats.Snapshot) {
	fmt.Fprintf(w, "# HELP spsd_core_runs_total Simulation runs completed.\n")
	fmt.Fprintf(w, "# TYPE spsd_core_runs_total counter\n")
	fmt.Fprintf(w, "spsd_core_runs_total %d\n", c.Runs)
	fmt.Fprintf(w, "# HELP spsd_core_events_total Discrete events executed.\n")
	fmt.Fprintf(w, "# TYPE spsd_core_events_total counter\n")
	fmt.Fprintf(w, "spsd_core_events_total %d\n", c.Events)
	fmt.Fprintf(w, "# HELP spsd_core_wheel_cascades_total Timing-wheel slot cascades.\n")
	fmt.Fprintf(w, "# TYPE spsd_core_wheel_cascades_total counter\n")
	fmt.Fprintf(w, "spsd_core_wheel_cascades_total %d\n", c.Cascades)
	fmt.Fprintf(w, "# HELP spsd_core_wheel_cascade_events_total Events moved by cascades.\n")
	fmt.Fprintf(w, "# TYPE spsd_core_wheel_cascade_events_total counter\n")
	fmt.Fprintf(w, "spsd_core_wheel_cascade_events_total %d\n", c.CascadeEvents)
	fmt.Fprintf(w, "# HELP spsd_core_wheel_overflow_total Events parked past the wheel span.\n")
	fmt.Fprintf(w, "# TYPE spsd_core_wheel_overflow_total counter\n")
	fmt.Fprintf(w, "spsd_core_wheel_overflow_total %d\n", c.Overflowed)
	fmt.Fprintf(w, "# HELP spsd_core_pool_ops_total Unit-pool operations by pool and op.\n")
	fmt.Fprintf(w, "# TYPE spsd_core_pool_ops_total counter\n")
	for _, p := range []struct {
		name string
		s    corestats.PoolSnapshot
	}{{"packet", c.PacketPool}, {"batch", c.BatchPool}, {"frame", c.FramePool}} {
		fmt.Fprintf(w, "spsd_core_pool_ops_total{pool=%q,op=\"get\"} %d\n", p.name, p.s.Gets)
		fmt.Fprintf(w, "spsd_core_pool_ops_total{pool=%q,op=\"hit\"} %d\n", p.name, p.s.Hits)
		fmt.Fprintf(w, "spsd_core_pool_ops_total{pool=%q,op=\"grow\"} %d\n", p.name, p.s.Grows)
		fmt.Fprintf(w, "spsd_core_pool_ops_total{pool=%q,op=\"recycle\"} %d\n", p.name, p.s.Recycles)
	}
	fmt.Fprintf(w, "# HELP spsd_core_barrier_epochs_total Sharded-run lockstep epochs joined.\n")
	fmt.Fprintf(w, "# TYPE spsd_core_barrier_epochs_total counter\n")
	fmt.Fprintf(w, "spsd_core_barrier_epochs_total %d\n", c.BarrierEpochs)
	fmt.Fprintf(w, "# HELP spsd_core_barrier_wait_seconds_total Wall-clock time shards spent waiting at epoch barriers.\n")
	fmt.Fprintf(w, "# TYPE spsd_core_barrier_wait_seconds_total counter\n")
	fmt.Fprintf(w, "spsd_core_barrier_wait_seconds_total %g\n", float64(c.BarrierWaitNs)/1e9)
}
