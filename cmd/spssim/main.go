// Command spssim runs one packet-level HBM-switch simulation with
// configurable traffic and prints the measurement report. It is the
// interactive tool behind the E5/E6/E12 experiments, and with -json
// it emits the serving daemon's wire format: the output is
// byte-identical to an spsd "sim" job with the same parameters (the
// two share serve.SimSpec for configuration and
// hbmswitch.Report.WriteJSON for serialization).
//
// Examples:
//
//	spssim -load 0.95 -matrix uniform -sizes imix -horizon 50us
//	spssim -load 0.9 -matrix diagonal -shadow -speedup 1.1
//	spssim -load 0.05 -bypass=false -pad=false   # feel the frame-fill latency
//	spssim -telemetry tele.csv -trace trace.json -trace-sample 64
//	spssim -json -horizon 5us > report.json
package main

import (
	"flag"
	"fmt"
	"os"

	"pbrouter/internal/cli"
	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/serve"
	"pbrouter/internal/sim"
	"pbrouter/internal/telemetry"
	"pbrouter/internal/traffic"
	"pbrouter/internal/workload"
)

func main() {
	var (
		load    = flag.Float64("load", 0.9, "offered load per input in [0,1]")
		matrix  = flag.String("matrix", "uniform", "traffic matrix: uniform|diagonal|hotspot|incast|failover")
		sizes   = flag.String("sizes", "imix", "packet sizes: imix|64|1500|uniform")
		arrival = flag.String("arrival", "poisson", "arrival process: poisson|bursty")
		horizon = flag.String("horizon", "50us", "simulated duration, e.g. 20us, 1ms")
		seed    = flag.Uint64("seed", 1, "random seed")
		speedup = flag.Float64("speedup", 1.1, "HBM speedup factor")
		shadow  = flag.Bool("shadow", false, "run the ideal OQ shadow and report relative delay")
		pad     = flag.Bool("pad", true, "enable frame padding")
		bypass  = flag.Bool("bypass", true, "enable HBM bypass")
		stacks  = flag.Int("stacks", 4, "HBM stacks (4 = reference; 1 = scaled switch)")
		replay  = flag.String("replay", "", "replay a trafficgen trace instead of generating traffic")

		wl       = flag.String("workload", "uniform", "flow-level workload: uniform|heavytail|onoff|diurnal|replay (non-uniform kinds replace -arrival)")
		flowDist = flag.String("flow-dist", "", "heavytail flow-size distribution: pareto|lognormal")
		tail     = flag.Float64("tail", 0, "heavytail Pareto tail index in (1,5] (0 = default)")
		burst    = flag.Float64("burst-ratio", 0, "onoff peak/mean load ratio >= 1 (0 = default)")
		wlReplay = flag.String("replay-ndjson", "", "NDJSON workload trace (with -workload replay)")
		refresh  = flag.Bool("refresh", false, "enable the REFsb refresh scheduler")
		jsonOut  = flag.Bool("json", false, "write the report as JSON to stdout (the serving daemon's wire format) instead of the human summary")

		telemetryOut = flag.String("telemetry", "", "write simulated-time telemetry to this file (.json for JSON, else CSV; - for stdout)")
		telePeriod   = flag.String("telemetry-period", "1us", "telemetry sampling period (simulated time)")
		coreProbes   = flag.Bool("core-probes", false, "add event-core probes (timing wheel, pools) to the telemetry series; changes the series column set but never the report")
		traceOut     = flag.String("trace", "", "write packet-lifecycle Chrome trace JSON (open in Perfetto) to this file")
		traceSample  = flag.Int("trace-sample", 64, "trace one packet in N")
	)
	flag.Parse()

	hz, err := cli.Duration("-horizon", *horizon)
	if err != nil {
		cli.Exit(cli.Outcome{UsageErr: err})
	}
	wf := cli.WorkloadFlags{
		Kind: *wl, FlowDist: *flowDist, TailAlpha: *tail,
		BurstRatio: *burst, ReplayPath: *wlReplay,
	}
	cli.Check(
		cli.ValidateSample("-trace-sample", *traceSample),
		cli.ValidateCount("-stacks", *stacks),
		wf.Validate(),
	)
	if *replay != "" && wf.Kind != workload.KindUniform {
		cli.Exit(cli.Outcome{UsageErr: fmt.Errorf("-replay (binary trace) and -workload %s are mutually exclusive", wf.Kind)})
	}

	// The daemon's "sim" jobs resolve their switch and traffic through
	// this same spec, which is what keeps `spssim -json` byte-identical
	// to an spsd job with the same parameters.
	spec := serve.SimSpec{
		Load: *load, Matrix: *matrix, Sizes: *sizes, Arrival: *arrival,
		HorizonPs: hz, Seed: *seed, Speedup: *speedup, Shadow: *shadow,
		Pad: pad, Bypass: bypass, Stacks: *stacks, Refresh: *refresh,
		CoreProbes: *coreProbes,
	}
	cfg := spec.Config()

	sw, err := hbmswitch.New(cfg)
	if err != nil {
		cli.Exit(cli.Outcome{RunErr: err})
	}

	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	if *telemetryOut != "" {
		period, err := cli.Duration("-telemetry-period", *telePeriod)
		if err != nil {
			cli.Exit(cli.Outcome{UsageErr: err})
		}
		if reg, err = telemetry.New(period); err != nil {
			cli.Exit(cli.Outcome{UsageErr: err})
		}
	}
	if *traceOut != "" {
		if tracer, err = telemetry.NewTracer(*traceSample); err != nil {
			cli.Exit(cli.Outcome{UsageErr: err})
		}
	}
	if *coreProbes && reg == nil {
		cli.Exit(cli.Outcome{UsageErr: fmt.Errorf("-core-probes needs -telemetry: the probes sample into the telemetry series")})
	}
	if reg != nil || tracer != nil {
		sw.Instrument(reg, tracer, "", 0)
	}
	if *coreProbes {
		sw.InstrumentCore(reg, "")
	}

	var stream traffic.Stream
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			cli.Exit(cli.Outcome{RunErr: err})
		}
		defer f.Close()
		ts, err := traffic.NewTraceStream(f)
		if err != nil {
			cli.Exit(cli.Outcome{RunErr: err})
		}
		if ts.Header().N != cfg.PFI.N {
			cli.Exit(cli.Outcome{RunErr: fmt.Errorf("trace has %d ports, switch has %d", ts.Header().N, cfg.PFI.N)})
		}
		stream = ts
	} else if wf.Kind != workload.KindUniform {
		m, err := cli.Matrix(*matrix, cfg.PFI.N, *load)
		if err != nil {
			cli.Exit(cli.Outcome{UsageErr: err})
		}
		dist, err := cli.Sizes(*sizes)
		if err != nil {
			cli.Exit(cli.Outcome{UsageErr: err})
		}
		wcfg := wf.Config()
		wcfg.Sizes = dist
		if stream, err = workload.New(wcfg, m, cfg.PortRate, sim.NewRNG(*seed)); err != nil {
			cli.Exit(cli.Outcome{UsageErr: err})
		}
	} else {
		if stream, err = spec.NewStream(cfg); err != nil {
			cli.Exit(cli.Outcome{UsageErr: err})
		}
	}
	rep, err := sw.Run(stream, hz)
	if err != nil {
		cli.Exit(cli.Outcome{RunErr: err})
	}
	if ts, ok := stream.(*traffic.TraceStream); ok && ts.Err() != nil {
		cli.Exit(cli.Outcome{RunErr: fmt.Errorf("trace read error: %w", ts.Err())})
	}

	if reg != nil {
		if err := cli.WriteSeries(*telemetryOut, reg.Series()); err != nil {
			cli.Exit(cli.Outcome{RunErr: err})
		}
	}
	if tracer != nil {
		if err := cli.WriteTrace(*traceOut, tracer); err != nil {
			cli.Exit(cli.Outcome{RunErr: err})
		}
	}

	if *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			cli.Exit(cli.Outcome{RunErr: err})
		}
	} else {
		fmt.Printf("HBM switch: %d ports x %v, %d stacks, speedup %.2f, pad=%v bypass=%v\n",
			cfg.PFI.N, cfg.PortRate, cfg.Geometry.Stacks, cfg.Speedup, *pad, *bypass)
		fmt.Printf("workload:   %s matrix, load %.2f, %s sizes, %s arrivals, %v horizon\n\n",
			*matrix, *load, *sizes, *arrival, hz)
		fmt.Println(rep)
		fmt.Printf("\nlatency:    mean %v  p50 %v  p99 %v  max %v\n",
			rep.LatencyMean, rep.LatencyP50, rep.LatencyP99, rep.LatencyMax)
		fmt.Printf("SRAM high water: tail %.2f MB, head %.2f MB; HBM max region fill %d frames\n",
			float64(rep.TailHighWater)/(1<<20), float64(rep.HeadHighWater)/(1<<20), rep.MaxRegionFill)
		if rep.ShadowRun {
			fmt.Printf("vs ideal OQ: throughput %.1f%%, relative delay mean %v p99 %v max %v\n",
				100*rep.Throughput/rep.ShadowThroughput, rep.RelDelayMean, rep.RelDelayP99, rep.RelDelayMax)
		}
	}
	for _, e := range rep.Errors {
		fmt.Fprintf(os.Stderr, "invariant violation: %v\n", e)
	}
	cli.Exit(cli.Outcome{Violations: len(rep.Errors)})
}
