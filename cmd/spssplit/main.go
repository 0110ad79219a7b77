// Command spssplit sweeps splitter policies against the SPS: for each
// policy × workload grid point it runs a multi-epoch campaign in which
// the policy may re-hash the fiber→switch assignment at every epoch
// boundary, and reports per-switch load imbalance (max-over-mean),
// rehash churn, and goodput against the paper's static design point.
// Reports are byte-identical for every -j.
//
// Policies: static (the paper baseline — never moves a fiber),
// leastloaded (greedy longest-processing-time), p2c (power-of-two-
// choices), adaptive (pheromone-weighted, mirrors the fleet
// scheduler). Workloads: adversarial (α hot fibers per ribbon),
// elephants (heavy-tailed hashed flows), incast (many→one), churn
// (uniform load under fail/repair faults).
//
// Examples:
//
//	spssplit -quick -out -
//	spssplit -policies static,leastloaded -workloads adversarial -out split.csv
//	spssplit -load 0.9 -epochs 6 -json -out split.json
//	spssplit -series ep_ -validate
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"pbrouter/internal/cli"
	"pbrouter/internal/sim"
	"pbrouter/internal/splitpolicy"
)

func main() {
	var (
		policies  = flag.String("policies", "", "comma-separated policies (default all: "+strings.Join(splitpolicy.PolicyNames(), ",")+")")
		workloads = flag.String("workloads", "", "comma-separated workloads (default all: "+strings.Join(splitpolicy.WorkloadNames(), ",")+")")
		n         = flag.Int("N", 8, "fiber ribbons (router ports)")
		f         = flag.Int("F", 16, "fibers per ribbon")
		h         = flag.Int("H", 4, "parallel HBM switches")
		waves     = flag.Int("wavelengths", 16, "WDM wavelengths per fiber")
		chGbps    = flag.Float64("channel-gbps", 10, "WDM channel rate in Gb/s")
		stacks    = flag.Int("stacks", 1, "HBM stacks per switch")
		load      = flag.Float64("load", 0.9, "offered load per fiber in (0,1]")
		horizon   = flag.String("horizon", "40us", "campaign horizon (simulated time)")
		epochs    = flag.Int("epochs", 4, "rehash epochs per campaign")
		seed      = flag.Uint64("seed", 1, "sweep seed")
		jobs      = flag.Int("j", 0, "parallel workers (0 = one per CPU; output is identical for every value)")

		out      = flag.String("out", "-", "sweep table output (.json for JSON, else CSV; - for stdout)")
		jsonOut  = flag.Bool("json", false, "force JSON output regardless of -out extension")
		series   = flag.String("series", "", "per-point epoch series prefix: writes <prefix><point>.csv")
		validate = flag.Bool("validate", true, "attach the structural probe and OQ shadow; any violation fails the run")
		quick    = flag.Bool("quick", false, "small seeded smoke sweep (CI): static+leastloaded on adversarial+churn, short horizon")
	)
	flag.Parse()

	cli.Check(
		cli.ValidateJobs(*jobs),
		cli.ValidateCount("-N", *n),
		cli.ValidateCount("-F", *f),
		cli.ValidateCount("-H", *h),
		cli.ValidateCount("-stacks", *stacks),
		cli.ValidateCount("-epochs", *epochs),
	)
	hz, err := cli.Duration("-horizon", *horizon)
	if err != nil {
		cli.Exit(cli.Outcome{UsageErr: err})
	}

	cfg := splitpolicy.SweepConfig{
		Policies:  cli.List(*policies),
		Workloads: cli.List(*workloads),
		N:         *n, F: *f, H: *h,
		Wavelengths: *waves,
		ChannelGbps: *chGbps,
		Stacks:      *stacks,
		Load:        *load,
		HorizonPs:   hz,
		Epochs:      *epochs,
		Seed:        *seed,
		Workers:     *jobs,
		Validate:    validate,
	}
	if *quick {
		cfg.HorizonPs = 8 * sim.Microsecond
		cfg.Epochs = 2
		if *policies == "" {
			cfg.Policies = []string{splitpolicy.PolicyStatic, splitpolicy.PolicyLeastLoaded}
		}
		if *workloads == "" {
			cfg.Workloads = []string{splitpolicy.WorkloadAdversarial, splitpolicy.WorkloadChurn}
		}
	}
	cfg.Normalize()
	if err := cfg.Check(); err != nil {
		cli.Exit(cli.Outcome{UsageErr: err})
	}

	sink := cli.SweepOutput{Out: *out, JSON: *jsonOut, Series: *series, Validate: *validate}
	pts := make([]splitpolicy.SweepPoint, 0, cfg.NumPoints())
	for k := 0; k < cfg.NumPoints(); k++ {
		pt, rep, err := cfg.RunPoint(context.Background(), k)
		if err != nil {
			cli.Exit(cli.Outcome{RunErr: err})
		}
		pts = append(pts, pt)
		if err := sink.WritePoint(k, rep.Series); err != nil {
			cli.Exit(cli.Outcome{RunErr: err})
		}
		fmt.Fprintf(os.Stderr, "%s/%s: offered max/mean %.3f delivered %.3f rehashes %d moved %d goodput %.0f Gb/s\n",
			cfg.PointPolicy(k), cfg.PointWorkload(k),
			rep.OfferedMaxOverMean, rep.DeliveredMaxOverMean,
			rep.Rehashes, rep.MovedFibers, rep.GoodputGbps)
	}
	cli.Exit(sink.Finish(cfg.Assemble(pts)))
}
