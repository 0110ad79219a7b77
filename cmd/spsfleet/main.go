// Command spsfleet is the distributed serving coordinator: a daemon
// that accepts the same job specs as spsd, decomposes each job into
// its checkpoint units, dispatches those units to a fleet of spsd
// backends under a pluggable scheduler (-sched random|roundrobin|p2c|
// least-latency|adaptive), and reassembles results byte-identical to
// a single-node run at the same seed. When a backend dies or stalls
// mid-unit, the unit is retried on the survivors; completed units are
// never recomputed.
//
// Examples:
//
//	spsfleet -backends http://host1:9090,http://host2:9090
//	spsfleet -backends http://localhost:9091 -sched adaptive -seed 7
//	spsfleet -addr :0 -addr-file /tmp/spsfleet.addr -checkpoint-dir /var/lib/spsfleet
//
// SIGTERM or SIGINT drains gracefully: admission stops, running jobs
// get -drain-grace to finish, stragglers checkpoint their completed
// units and resume on the next start. See docs/fleet.md.
package main

import (
	"flag"
	"time"

	"pbrouter/internal/cli"
	"pbrouter/internal/fleet"
)

func main() {
	var (
		addr       = flag.String("addr", "localhost:9095", "listen address (host:port; port 0 picks an ephemeral port)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file (for scripts and tests)")
		backends   = flag.String("backends", "", "comma-separated spsd base URLs (required)")
		sched      = flag.String("sched", fleet.SchedP2C, "dispatch scheduler: random|roundrobin|p2c|least-latency|adaptive")
		seed       = flag.Int64("seed", 1, "scheduler RNG seed (dispatch sequences are deterministic per seed)")
		queueDepth = flag.Int("queue-depth", 64, "admission queue bound: jobs accepted but not yet running")
		workers    = flag.Int("workers", 2, "jobs run concurrently")
		fanout     = flag.Int("fanout", 0, "concurrent unit dispatches per job (0 = one per backend)")
		attempts   = flag.Int("unit-attempts", 8, "dispatch attempts per unit before the job fails")
		idle       = flag.Duration("unit-idle-timeout", 10*time.Second, "max silence on a unit stream before the dispatch counts as failed")
		health     = flag.Duration("health-interval", time.Second, "backend health-probe period")
		ckptDir    = flag.String("checkpoint-dir", "", "persist jobs here for resume-on-restart (empty disables)")
		drainGrace = flag.Duration("drain-grace", 10*time.Second, "how long a drain lets running jobs finish before checkpointing them")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
		logFormat  = flag.String("log-format", "json", "log encoding: json|text")
	)
	flag.Parse()
	urls, err := cli.ParseBackends(*backends)
	if err != nil {
		cli.Exit(cli.Outcome{UsageErr: err})
	}
	cli.Check(
		cli.ValidateAddr(*addr),
		cli.ValidateScheduler(*sched, fleet.SchedulerNames()),
		cli.ValidateQueueDepth(*queueDepth),
		cli.ValidateCount("-workers", *workers),
		cli.ValidateCount("-unit-attempts", *attempts),
		cli.ValidateCheckpointDir(*ckptDir),
		cli.ValidateLogLevel(*logLevel),
		cli.ValidateLogFormat(*logFormat),
	)

	logger := cli.Logger(*logLevel, *logFormat, "spsfleet")
	coord, err := fleet.New(fleet.Config{
		Backends:        urls,
		Scheduler:       *sched,
		Seed:            *seed,
		QueueDepth:      *queueDepth,
		Workers:         *workers,
		Fanout:          *fanout,
		UnitAttempts:    *attempts,
		UnitIdleTimeout: *idle,
		HealthInterval:  *health,
		CheckpointDir:   *ckptDir,
		DrainGrace:      *drainGrace,
		Logger:          logger,
	})
	if err != nil {
		cli.Exit(cli.Outcome{RunErr: err})
	}

	coord.Start()
	cli.ServeUntilSignal(*addr, *addrFile, coord.Handler(), coord.Drain, logger,
		"backends", len(urls), "scheduler", *sched, "workers", *workers)
}
