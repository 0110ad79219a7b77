// Command spsarch is the cross-architecture arena: it runs realistic
// workloads — heavy-tailed flows, ON/OFF bursts, diurnal load curves,
// replayed traces — through every router design the paper compares,
// and reports a unified (architecture × workload) grid of throughput,
// delay percentiles, buffering peaks, loss, and OEO stages. Every
// design in a workload column faces byte-identical packets, and the
// grid is byte-identical for every -j.
//
// Architectures: sps (the paper's HBM switch, run under the full
// validation observer), oq (ideal output-queued), cq (crosspoint-
// queued crossbar), spray (random spraying + resequencing), pps
// (three-stage parallel packet switch), mesh (k×k grid).
// Workloads: uniform (Poisson), heavytail (Pareto/lognormal flow
// trains), onoff (bursty sources), diurnal (day-curve modulation),
// replay (NDJSON trace; synthesized from the heavy-tail generator
// when -replay is not given).
//
// Examples:
//
//	spsarch -quick -out -
//	spsarch -archs sps,cq -workloads uniform,heavytail -out arena.csv
//	spsarch -tail 1.2 -burst-ratio 8 -json -out arena.json
//	spsarch -workloads replay -replay trace.ndjson -out -
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"pbrouter/internal/arch"
	"pbrouter/internal/cli"
	"pbrouter/internal/parallel"
	"pbrouter/internal/sim"
	"pbrouter/internal/workload"
)

func main() {
	var (
		archs     = flag.String("archs", "", "comma-separated architectures (default all: "+strings.Join(arch.ArchNames(), ",")+")")
		workloads = flag.String("workloads", "", "comma-separated workloads (default all: "+strings.Join(workload.Kinds(), ",")+")")
		n         = flag.Int("N", 16, "router ports (a perfect square when mesh runs)")
		h         = flag.Int("H", 4, "PPS middle-stage planes")
		stacks    = flag.Int("stacks", 1, "HBM stacks (sps and spray memory)")
		portGbps  = flag.Float64("port-gbps", 256, "external port rate in Gb/s")
		load      = flag.Float64("load", 0.9, "offered load per input in (0,1]")
		tail      = flag.Float64("tail", 1.3, "heavytail Pareto tail index in (1,5]")
		burst     = flag.Float64("burst-ratio", 4, "onoff peak/mean load ratio (>= 1)")
		replay    = flag.String("replay", "", "NDJSON trace for the replay workload (default: synthesized)")
		xpointKB  = flag.Int64("crosspoint-kb", 64, "cq per-crosspoint buffer in KB")
		horizon   = flag.String("horizon", "40us", "simulation horizon per cell")
		seed      = flag.Uint64("seed", 1, "sweep seed")
		jobs      = flag.Int("j", 0, "parallel workers (0 = one per CPU; output is identical for every value)")

		out      = flag.String("out", "-", "grid table output (.json for JSON, else CSV; - for stdout)")
		jsonOut  = flag.Bool("json", false, "force JSON output regardless of -out extension")
		series   = flag.String("series", "", "per-cell arch.* series prefix: writes <prefix><cell>.csv")
		validate = flag.Bool("validate", true, "attach the structural probe to sps cells; any violation fails the run")
		quick    = flag.Bool("quick", false, "small seeded smoke grid (CI): sps+oq+cq on uniform+heavytail, short horizon")
	)
	flag.Parse()

	cli.Check(
		cli.ValidateJobs(*jobs),
		cli.ValidateCount("-N", *n),
		cli.ValidateCount("-H", *h),
		cli.ValidateCount("-stacks", *stacks),
		cli.ValidateTailAlpha(*tail),
		cli.ValidateBurstRatio(*burst),
	)
	hz, err := cli.Duration("-horizon", *horizon)
	if err != nil {
		cli.Exit(cli.Outcome{UsageErr: err})
	}

	cfg := arch.SweepConfig{
		Archs:        cli.List(*archs),
		Workloads:    cli.List(*workloads),
		N:            *n,
		H:            *h,
		Stacks:       *stacks,
		PortGbps:     *portGbps,
		Load:         *load,
		TailAlpha:    *tail,
		BurstRatio:   *burst,
		ReplayPath:   *replay,
		CrosspointKB: *xpointKB,
		HorizonPs:    hz,
		Seed:         *seed,
		Workers:      *jobs,
		Validate:     validate,
	}
	if *quick {
		cfg.N = 4
		cfg.HorizonPs = 8 * sim.Microsecond
		if *archs == "" {
			cfg.Archs = []string{arch.ArchSPS, arch.ArchOQ, arch.ArchCQ}
		}
		if *workloads == "" {
			cfg.Workloads = []string{workload.KindUniform, workload.KindHeavyTail}
		}
	}
	cfg.Normalize()
	if err := cfg.Check(); err != nil {
		cli.Exit(cli.Outcome{UsageErr: err})
	}

	sink := cli.SweepOutput{Out: *out, JSON: *jsonOut, Series: *series, Validate: *validate}
	type cellOut struct {
		pt  arch.SweepPoint
		rep *arch.Report
	}
	cells, err := parallel.MapCtx(context.Background(), parallel.Workers(*jobs), cfg.NumPoints(),
		func(k int) (cellOut, error) {
			pt, rep, err := cfg.RunPoint(context.Background(), k)
			return cellOut{pt, rep}, err
		})
	if err != nil {
		cli.Exit(cli.Outcome{RunErr: err})
	}
	pts := make([]arch.SweepPoint, 0, len(cells))
	for k, c := range cells {
		pts = append(pts, c.pt)
		if err := sink.WritePoint(k, c.rep.Series); err != nil {
			cli.Exit(cli.Outcome{RunErr: err})
		}
		fmt.Fprintf(os.Stderr, "%s/%s: tput %.3f p99 %v queue %d B reorder %d B loss %.4f oeo %.1f\n",
			c.rep.Arch, c.rep.Workload, c.rep.Cell.Throughput, c.rep.Cell.LatencyP99,
			c.rep.Cell.QueuePeak, c.rep.Cell.ReorderPeak, c.rep.Cell.LossFrac, c.rep.Cell.OEOStages)
	}
	cli.Exit(sink.Finish(cfg.Assemble(pts)))
}
