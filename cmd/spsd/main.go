// Command spsd is the router-simulation serving daemon: a long-
// running HTTP service that accepts simulation jobs (sim, sweep,
// validate, resilience), runs them on a bounded worker pool, streams
// telemetry while they run, and checkpoints long campaigns so a
// drained or killed daemon resumes them on restart. Job results are
// byte-identical to the equivalent CLI runs at the same seed.
//
// With -ui the daemon also serves its embedded web control plane at /
// — a dashboard over the versioned read-side API under -api-prefix
// (default /api/v1), all from this single static binary.
//
// Examples:
//
//	spsd -addr localhost:9090 -ui
//	spsd -addr :0 -addr-file /tmp/spsd.addr -checkpoint-dir /var/lib/spsd
//	spsd -workers 4 -queue-depth 128 -j 2 -log-format text -log-level debug
//
// SIGTERM or SIGINT drains gracefully: admission stops, running jobs
// get -drain-grace to finish, stragglers checkpoint and resume on the
// next start. See docs/serving.md for the API and docs/dashboard.md
// for the web control plane.
package main

import (
	"flag"
	"time"

	"pbrouter/internal/cli"
	"pbrouter/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:9090", "listen address (host:port; port 0 picks an ephemeral port)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file (for scripts and tests)")
		queueDepth = flag.Int("queue-depth", 64, "admission queue bound: jobs accepted but not yet running")
		workers    = flag.Int("workers", 2, "jobs run concurrently")
		jobs       = flag.Int("j", 0, "per-job worker goroutines (0 = one per CPU; results are identical for any value)")
		ckptDir    = flag.String("checkpoint-dir", "", "persist jobs here for resume-on-restart (empty disables)")
		drainGrace = flag.Duration("drain-grace", 10*time.Second, "how long a drain lets running jobs finish before checkpointing them")
		ui         = flag.Bool("ui", false, "serve the embedded web dashboard at /")
		apiPrefix  = flag.String("api-prefix", "/api/v1", "mount prefix of the versioned read-side API")
		fleetURL   = flag.String("fleet", "", "spsfleet coordinator base URL; proxied at {api-prefix}/fleet for the dashboard's fleet panel")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
		logFormat  = flag.String("log-format", "json", "log encoding: json|text")
	)
	flag.Parse()
	cli.Check(
		cli.ValidateAddr(*addr),
		cli.ValidateQueueDepth(*queueDepth),
		cli.ValidateCount("-workers", *workers),
		cli.ValidateJobs(*jobs),
		cli.ValidateCheckpointDir(*ckptDir),
		cli.ValidateAPIPrefix(*apiPrefix),
		cli.ValidateLogLevel(*logLevel),
		cli.ValidateLogFormat(*logFormat),
	)

	logger := cli.Logger(*logLevel, *logFormat, "spsd")
	srv, err := serve.New(serve.Config{
		QueueDepth:     *queueDepth,
		Workers:        *workers,
		JobParallelism: *jobs,
		CheckpointDir:  *ckptDir,
		DrainGrace:     *drainGrace,
		Logger:         logger,
		APIPrefix:      *apiPrefix,
		UI:             *ui,
		FleetURL:       *fleetURL,
	})
	if err != nil {
		cli.Exit(cli.Outcome{RunErr: err})
	}

	srv.Start()
	cli.ServeUntilSignal(*addr, *addrFile, srv.Handler(), srv.Drain, logger,
		"workers", *workers, "queue", *queueDepth, "ui", *ui, "api", *apiPrefix)
}
