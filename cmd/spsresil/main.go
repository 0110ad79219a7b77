// Command spsresil runs resilience campaigns against the SPS: it
// injects component failures (whole HBM switches, HBM channels, bank
// groups, dimmed fibers) on a seeded schedule and sweeps failure
// severity into availability/goodput curves. Reports are byte-
// identical for every -j.
//
// Two sweep modes:
//
//	-sweep failed-switches   permanent loss of f = 0..max switches;
//	                         the curve should track (H-f)/H — the
//	                         paper's graceful-degradation property
//	-sweep mtbf              seeded Poisson fault/repair schedules at
//	                         geometrically increasing fault rates
//
// Examples:
//
//	spsresil -quick -out -
//	spsresil -sweep failed-switches -max-failed 3 -load 0.98 -out avail.csv
//	spsresil -sweep mtbf -mtbf 40us -mttr 10us -points 3 -json -out mtbf.json
//	spsresil -sweep mtbf -fault-rate 2.5e7 -mttr 10us -events events.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"pbrouter/internal/cli"
	"pbrouter/internal/resilience"
	"pbrouter/internal/sim"
	"pbrouter/internal/telemetry"
)

func main() {
	var (
		sweep   = flag.String("sweep", "failed-switches", "sweep mode: failed-switches|mtbf")
		n       = flag.Int("N", 8, "fiber ribbons (router ports)")
		f       = flag.Int("F", 16, "fibers per ribbon")
		h       = flag.Int("H", 4, "parallel HBM switches")
		waves   = flag.Int("wavelengths", 16, "WDM wavelengths per fiber")
		chGbps  = flag.Float64("channel-gbps", 10, "WDM channel rate in Gb/s")
		stacks  = flag.Int("stacks", 1, "HBM stacks per switch")
		load    = flag.Float64("load", 0.98, "offered load per fiber in (0,1]")
		horizon = flag.String("horizon", "60us", "campaign horizon (simulated time)")
		seed    = flag.Uint64("seed", 1, "campaign seed")
		jobs    = flag.Int("j", 0, "parallel workers (0 = one per CPU; output is identical for every value)")

		maxFailed = flag.Int("max-failed", 2, "failed-switches sweep: fail 0..max switches")
		mtbfFlag  = flag.String("mtbf", "", "mtbf sweep: mean time between faults (simulated duration)")
		faultRate = flag.Float64("fault-rate", 0, "mtbf sweep: mean faults per simulated second (alternative to -mtbf)")
		mttrFlag  = flag.String("mttr", "8us", "mtbf sweep: mean time to repair")
		points    = flag.Int("points", 3, "mtbf sweep: points, halving MTBF each step")

		out      = flag.String("out", "-", "sweep table output (.json for JSON, else CSV; - for stdout)")
		jsonOut  = flag.Bool("json", false, "force JSON output regardless of -out extension")
		series   = flag.String("series", "", "per-point epoch series prefix: writes <prefix><point>.csv")
		events   = flag.String("events", "", "fault/repair event log output (mtbf sweep; .json or CSV)")
		validate = flag.Bool("validate", true, "attach the structural probe and OQ shadow; any violation fails the run")
		quick    = flag.Bool("quick", false, "small seeded smoke campaign (CI): short horizon, 2 points")
	)
	flag.Parse()

	cli.Check(
		cli.ValidateJobs(*jobs),
		cli.ValidateCount("-N", *n),
		cli.ValidateCount("-F", *f),
		cli.ValidateCount("-H", *h),
		cli.ValidateCount("-stacks", *stacks),
		cli.ValidateCount("-points", *points),
		cli.ValidateFaultRate(*faultRate),
	)
	hz, err := cli.Duration("-horizon", *horizon)
	if err != nil {
		cli.Exit(cli.Outcome{UsageErr: err})
	}
	if *quick {
		hz = 30 * sim.Microsecond
		*maxFailed = 1
		*points = 2
	}

	cfg := resilience.SweepConfig{
		Mode: *sweep,
		N:    *n, F: *f, H: *h,
		Wavelengths: *waves,
		ChannelGbps: *chGbps,
		Stacks:      *stacks,
		Load:        *load,
		HorizonPs:   hz,
		Seed:        *seed,
		Workers:     *jobs,
		Validate:    validate,
		MaxFailed:   *maxFailed,
		Points:      *points,
	}
	if *sweep == resilience.ModeMTBF {
		mtbf, err := cli.MTBF(*mtbfFlag, *faultRate)
		if *quick && *mtbfFlag == "" && *faultRate == 0 {
			mtbf, err = hz/3, nil
		}
		if err != nil {
			cli.Exit(cli.Outcome{UsageErr: err})
		}
		mttr, err := cli.Duration("-mttr", *mttrFlag)
		if err != nil {
			cli.Exit(cli.Outcome{UsageErr: err})
		}
		if *quick {
			mttr = hz / 6
		}
		cfg.MTBFPs, cfg.MTTRPs = mtbf, mttr
	}
	// Check covers the rest: the sweep mode, -max-failed leaving a
	// switch alive, and MTBF halving to no less than MTTR.
	if err := cfg.Check(); err != nil {
		cli.Exit(cli.Outcome{UsageErr: err})
	}

	sink := cli.SweepOutput{Out: *out, JSON: *jsonOut, Series: *series, Validate: *validate}
	var eventLog *telemetry.EventLog
	pts := make([]resilience.SweepPoint, 0, cfg.NumPoints())
	for k := 0; k < cfg.NumPoints(); k++ {
		pt, rep, err := cfg.RunPoint(context.Background(), k)
		if err != nil {
			cli.Exit(cli.Outcome{RunErr: err})
		}
		pts = append(pts, pt)
		if err := sink.WritePoint(k, rep.Series); err != nil {
			cli.Exit(cli.Outcome{RunErr: err})
		}
		switch cfg.Mode {
		case resilience.ModeFailedSwitches:
			ep := rep.Epochs[0]
			vsBase := 0.0
			if base := pts[0].Values[3]; base > 0 {
				vsBase = ep.GoodputGbps / base
			}
			fmt.Fprintf(os.Stderr, "failed=%d goodput %.0f Gb/s (%.3fx baseline, ideal %.3f) availability %.4f\n",
				k, ep.GoodputGbps, vsBase, float64(*h-k)/float64(*h), ep.Availability)
		case resilience.ModeMTBF:
			if k == 0 {
				eventLog = rep.Events
			}
			fmt.Fprintf(os.Stderr, "mtbf=%v: %d faults, %d epochs, availability %.4f\n",
				cfg.PointMTBF(k), int(pt.Values[1]), len(rep.Epochs), rep.Availability)
		}
	}
	o := sink.Finish(cfg.Assemble(pts))
	if o.Err() == nil && *events != "" && eventLog != nil {
		if err := writeEvents(*events, eventLog); err != nil {
			o.RunErr = err
		}
	}
	cli.Exit(o)
}

// writeEvents writes the fault/repair log, JSON by extension.
func writeEvents(path string, log *telemetry.EventLog) error {
	if path == "-" {
		return log.WriteCSV(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		err = log.WriteJSON(f)
	} else {
		err = log.WriteCSV(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}
