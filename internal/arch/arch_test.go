package arch

import (
	"context"
	"encoding/json"
	"testing"

	"pbrouter/internal/parallel"
	"pbrouter/internal/sim"
	"pbrouter/internal/workload"
)

// quickConfig is the smallest grid that still exercises every
// architecture: N=4 keeps the mesh square (2×2) and the SPS cells
// fast.
func quickConfig() SweepConfig {
	c := SweepConfig{
		N:         4,
		PortGbps:  200,
		HorizonPs: 10 * sim.Microsecond,
	}
	c.Normalize()
	return c
}

// runGrid executes every cell with the given worker count — the same
// parallel.MapCtx harness the CLI and daemon use.
func runGrid(t *testing.T, c SweepConfig, workers int) []SweepPoint {
	t.Helper()
	points, err := parallel.MapCtx(context.Background(), workers, c.NumPoints(), func(k int) (SweepPoint, error) {
		pt, _, err := c.RunPoint(context.Background(), k)
		return pt, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return points
}

// TestGridContract runs the full architecture × workload grid and
// checks the unified cell semantics: every cell productive, SPS cells
// free of invariant violations, table shape correct, and the table
// byte-identical to the fixture `make arch-smoke` also checks — the
// only pin of the spray, PPS and mesh cells under `go test`.
func TestGridContract(t *testing.T) {
	c := quickConfig()
	points := runGrid(t, c, 1)
	table, violations := c.Assemble(points)
	matchGolden(t, "testdata/grid.csv", table)
	if len(table.Rows) != c.NumPoints() {
		t.Fatalf("table has %d rows, want %d", len(table.Rows), c.NumPoints())
	}
	if len(table.Names) != len(table.Rows[0]) {
		t.Fatalf("table names %d != row width %d", len(table.Names), len(table.Rows[0]))
	}
	if violations != 0 {
		t.Fatalf("grid reported %d invariant violations, want 0", violations)
	}
	for _, pt := range points {
		arch, wl := c.PointArch(pt.Index), c.PointWorkload(pt.Index)
		tput := pt.Values[2]
		if tput <= 0 || tput > 1.0001 {
			t.Errorf("%s/%s throughput %.4f outside (0,1]", arch, wl, tput)
		}
		if p99 := pt.Values[4]; p99 <= 0 {
			t.Errorf("%s/%s p99 delay %v not positive", arch, wl, sim.Time(p99))
		}
		if arch == ArchSPS && pt.TotalViolations != 0 {
			t.Errorf("sps/%s cell has %d violations", wl, pt.TotalViolations)
		}
	}
}

// TestWorkerByteIdentity checks the assembled table is byte-identical
// across worker counts — cells depend only on (config, index).
func TestWorkerByteIdentity(t *testing.T) {
	c := quickConfig()
	c.Workloads = []string{workload.KindUniform, workload.KindHeavyTail, workload.KindOnOff}
	var blobs [][]byte
	for _, workers := range []int{1, 3} {
		table, _ := c.Assemble(runGrid(t, c, workers))
		b, err := json.Marshal(table)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Fatal("table differs between 1 and 3 workers")
	}
}

// TestColumnStreamIdentity checks every architecture in one workload
// column faces byte-identical packets: the stream seed must not
// depend on the architecture index.
func TestColumnStreamIdentity(t *testing.T) {
	c := quickConfig()
	fp := func() uint64 {
		s, _, err := c.buildStream(1) // heavytail column
		if err != nil {
			t.Fatal(err)
		}
		var h uint64 = 1469598103934665603
		for i := 0; i < 500; i++ {
			p, at := s.Next()
			if p == nil {
				break
			}
			for _, v := range []uint64{uint64(at), uint64(p.Size), uint64(p.Input), uint64(p.Output)} {
				h ^= v
				h *= 1099511628211
			}
		}
		return h
	}
	if fp() != fp() {
		t.Fatal("rebuilding the same workload column produced a different stream")
	}
}

// TestHeavyTailSeparation is the arena's reason to exist: under
// uniform Poisson traffic the crosspoint-queued crossbar looks fine,
// but heavy-tailed flow trains overrun its shallow per-crosspoint
// SRAM while the SPS switch's pooled HBM absorbs them. Uniform
// traffic must NOT expose the difference; heavy tails must.
func TestHeavyTailSeparation(t *testing.T) {
	c := quickConfig()
	c.Archs = []string{ArchSPS, ArchCQ}
	c.Workloads = []string{workload.KindUniform, workload.KindHeavyTail}
	c.CrosspointKB = 16
	c.HorizonPs = 40 * sim.Microsecond
	points := runGrid(t, c, 2)
	cell := func(arch, wl string) SweepPoint {
		for _, pt := range points {
			if c.PointArch(pt.Index) == arch && c.PointWorkload(pt.Index) == wl {
				return pt
			}
		}
		t.Fatalf("missing cell %s/%s", arch, wl)
		return SweepPoint{}
	}
	const lossCol = 7
	if loss := cell(ArchCQ, workload.KindUniform).Values[lossCol]; loss != 0 {
		t.Errorf("cq dropped %.4f of uniform traffic; separation must come from the tail, not the mean", loss)
	}
	if loss := cell(ArchSPS, workload.KindHeavyTail).Values[lossCol]; loss != 0 {
		t.Errorf("sps dropped %.4f under heavy tail; pooled HBM should absorb it", loss)
	}
	if loss := cell(ArchCQ, workload.KindHeavyTail).Values[lossCol]; loss <= 0 {
		t.Errorf("cq loss %.4f under heavy tail; shallow crosspoints should overrun", loss)
	}
}

// TestAssembleDerivesOQColumn checks the derived p99_vs_oq column:
// OQ's own row is exactly 1, other rows are p99 ratios.
func TestAssembleDerivesOQColumn(t *testing.T) {
	c := SweepConfig{Archs: []string{ArchOQ, ArchCQ}, Workloads: []string{workload.KindUniform}}
	c.Normalize()
	c.Archs = []string{ArchOQ, ArchCQ}
	c.Workloads = []string{workload.KindUniform}
	points := []SweepPoint{
		{Index: 0, Values: []float64{0, 0, 1, 100, 200, 0, 0, 0, 1, 0}},
		{Index: 1, Values: []float64{1, 0, 1, 300, 500, 0, 0, 0, 1, 0}},
	}
	table, _ := c.Assemble(points)
	const vsOQCol = 5
	if got := table.Rows[0][vsOQCol]; got != 1 {
		t.Errorf("oq vs itself = %g, want 1", got)
	}
	if got := table.Rows[1][vsOQCol]; got != 2.5 {
		t.Errorf("cq p99_vs_oq = %g, want 2.5", got)
	}
}

// TestConfigCheck rejects malformed sweeps.
func TestConfigCheck(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*SweepConfig)
		ok   bool
	}{
		{"defaults", func(c *SweepConfig) {}, true},
		{"unknown arch", func(c *SweepConfig) { c.Archs = []string{"banyan"} }, false},
		{"mesh non-square", func(c *SweepConfig) { c.Archs = []string{ArchMesh}; c.N = 10 }, false},
		{"mesh square ok", func(c *SweepConfig) { c.Archs = []string{ArchMesh}; c.N = 9 }, true},
		{"overload", func(c *SweepConfig) { c.Load = 1.5 }, false},
		{"bad tail", func(c *SweepConfig) { c.TailAlpha = 0.9 }, false},
		{"bad workload", func(c *SweepConfig) { c.Workloads = []string{"fractal"} }, false},
		{"one port", func(c *SweepConfig) { c.N = 1; c.Archs = []string{ArchOQ} }, false},
		{"negative stacks", func(c *SweepConfig) { c.Stacks = -1 }, false},
		{"zero stacks", func(c *SweepConfig) { c.Stacks = 0 }, false},
		{"negative crosspoint", func(c *SweepConfig) { c.CrosspointKB = -1 }, false},
		{"zero crosspoint", func(c *SweepConfig) { c.CrosspointKB = 0 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := SweepConfig{}
			c.Normalize()
			tc.mut(&c)
			err := c.Check()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}
