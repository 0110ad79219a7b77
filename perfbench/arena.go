package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"pbrouter/internal/arch"
	"pbrouter/internal/baseline"
	"pbrouter/internal/parallel"
	"pbrouter/internal/sim"
	"pbrouter/internal/stats"
	"pbrouter/internal/traffic"
	"pbrouter/internal/workload"
)

// arenaWL is the full architecture × workload arena: six designs, five
// flow-level workload columns, cell by cell through RunPoint with one
// worker. Every cell rebuilds its column's packet stream.
type arenaWL struct {
	cfg arch.SweepConfig
}

// arenaHorizon is each cell's simulated time.
const arenaHorizon = 40 * sim.Microsecond

func newArena(seed uint64) (*arenaWL, error) {
	cfg := arch.SweepConfig{HorizonPs: arenaHorizon, Seed: seed, Workers: 1}
	cfg.Normalize()
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	return &arenaWL{cfg: cfg}, nil
}

// columnStream builds workload column w's stream the way the arena
// seeds it, through the workload package: (seed, column) alone fixes
// the packets, and the replay column replays a captured heavy-tailed
// trace rescaled to the target load.
func (a *arenaWL) columnStream(w int) (traffic.Stream, error) {
	c := a.cfg
	m := traffic.Uniform(c.N, c.Load)
	rate := sim.Rate(c.PortGbps * 1e9)
	rng := sim.NewRNG(parallel.Seed(c.Seed, w))
	kind := c.Workloads[w]
	wcfg := workload.Config{Kind: kind, TailAlpha: c.TailAlpha, BurstRatio: c.BurstRatio}
	if kind != workload.KindReplay {
		return workload.New(wcfg, m, rate, rng)
	}
	wcfg.Kind = workload.KindHeavyTail
	ht, err := workload.New(wcfg, m, rate, rng)
	if err != nil {
		return nil, err
	}
	recs := workload.Capture(ht, c.HorizonPs)
	if len(recs) == 0 {
		return nil, fmt.Errorf("arena column %s: synthesized replay trace is empty", kind)
	}
	return workload.NewReplay(recs, workload.LoadScale(recs, rate, c.Load)), nil
}

func (a *arenaWL) round(traced bool) (round, error) {
	c := a.cfg
	// Set-up: validate the grid and generate every column's stream to
	// the horizon once, which both counts the packets each design will
	// see and times the workload layer on its own.
	t0 := time.Now()
	if err := c.Check(); err != nil {
		return round{}, err
	}
	streamS := make([]float64, len(c.Workloads))
	var colPackets int64
	for w := range c.Workloads {
		ts := time.Now()
		s, err := a.columnStream(w)
		if err != nil {
			return round{}, err
		}
		for {
			p, at := s.Next()
			if p == nil || at > c.HorizonPs {
				break
			}
			colPackets++
		}
		streamS[w] = time.Since(ts).Seconds()
	}
	setup := time.Since(t0).Seconds()

	ctx := context.Background()
	n := c.NumPoints()
	points := make([]arch.SweepPoint, n)
	cells := make([]arch.Cell, n)
	cellS := make([]float64, n)
	var failed []string
	t1 := time.Now()
	for k := 0; k < n; k++ {
		tc := time.Now()
		pt, rep, err := c.RunPoint(ctx, k)
		cellS[k] = time.Since(tc).Seconds()
		if err != nil {
			return round{}, fmt.Errorf("arena cell %d: %w", k, err)
		}
		points[k], cells[k] = pt, rep.Cell
		if pt.TotalViolations != 0 || len(rep.Violations) != 0 {
			failed = append(failed, fmt.Sprintf("arena cell %s/%s: %d violations",
				rep.Arch, rep.Workload, pt.TotalViolations))
		}
	}
	wall := time.Since(t1).Seconds()

	table, violations := c.Assemble(points)
	if violations != 0 {
		failed = append(failed, fmt.Sprintf("arena grid: %d violations", violations))
	}
	// The set-up's streams stand for the arena's own only if they are
	// the same packets: replay each through the ideal OQ switch and
	// require what the column's OQ cell reported.
	for k := 0; k < n; k++ {
		if c.PointArch(k) != "oq" {
			continue
		}
		w := k % len(c.Workloads)
		want, err := a.oqReference(w)
		if err != nil {
			return round{}, err
		}
		got := cells[k]
		if got.QueuePeak != want.QueuePeak || got.LatencyP50 != want.LatencyP50 ||
			got.LatencyP99 != want.LatencyP99 || got.Throughput != want.Throughput {
			failed = append(failed, fmt.Sprintf("arena column %s: the benchmark's stream differs from the arena's "+
				"(OQ cell %+v, replay %+v)", c.Workloads[w], got, want))
		}
	}
	enc, err := json.Marshal(struct {
		Points []arch.SweepPoint
		Table  any
	}{points, table})
	if err != nil {
		return round{}, err
	}
	sum := sha256.Sum256(enc)
	r := round{
		setup:   setup,
		wall:    wall,
		jobs:    []float64{setup + wall},
		packets: int64(len(c.Archs)) * colPackets,
		mppsSec: wall,
		digest:  hex.EncodeToString(sum[:8]),
		checked: n + len(c.Workloads),
		failed:  failed,
	}
	if traced {
		r.layers = map[string]float64{}
		for k, s := range cellS {
			r.layers["arch.cell_s."+c.PointArch(k)] += s
			r.explained += s
		}
		regen := 0.0
		for w, kind := range c.Workloads {
			r.layers["workload.stream_s."+kind] = streamS[w]
			regen += streamS[w]
		}
		r.layers["workload.regen_share"] = float64(len(c.Archs)) * regen / wall
	}
	return r, nil
}

// oqReference replays column w's stream, as columnStream builds it,
// through the ideal output-queued switch, and returns the delay,
// buffering and throughput figures the arena's OQ cell of that column
// reports when its stream is the same.
func (a *arenaWL) oqReference(w int) (arch.Cell, error) {
	c := a.cfg
	s, err := a.columnStream(w)
	if err != nil {
		return arch.Cell{}, err
	}
	sw := baseline.NewOQSwitch(c.N, sim.Rate(c.PortGbps*1e9))
	hist := stats.NewLatencyHistogram()
	var offered, byHorizon stats.Counter
	for {
		p, at := s.Next()
		if p == nil || at > c.HorizonPs {
			break
		}
		offered.Add(p.Size)
		dep := sw.Arrive(p)
		hist.AddTime(dep - p.Arrival)
		if dep <= c.HorizonPs {
			byHorizon.Add(p.Size)
		}
	}
	cell := arch.Cell{
		LatencyP50: hist.PercentileTime(0.50),
		LatencyP99: hist.PercentileTime(0.99),
		QueuePeak:  sw.MaxHighWater(),
	}
	if offered.Bytes > 0 {
		cell.Throughput = float64(byHorizon.Bytes) / float64(offered.Bytes)
	}
	return cell, nil
}
