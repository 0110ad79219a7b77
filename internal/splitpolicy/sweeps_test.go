package splitpolicy

import (
	"context"
	"strings"
	"testing"

	"pbrouter/internal/sim"
)

// quickSweep is the fast grid the CLI's -quick flag also uses:
// 4x8 over 4 switches, short horizon, two epochs.
func quickSweep(policies, workloads []string) SweepConfig {
	c := SweepConfig{
		Policies: policies, Workloads: workloads,
		N: 4, F: 8, H: 4,
		Load:      0.9,
		HorizonPs: 8 * sim.Microsecond,
		Epochs:    2,
		Seed:      21,
	}
	c.Normalize()
	return c
}

func TestSweepGridShape(t *testing.T) {
	var c SweepConfig
	c.Normalize()
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	if got, want := c.NumPoints(), len(PolicyNames())*len(WorkloadNames()); got != want {
		t.Fatalf("default grid has %d points, want %d", got, want)
	}
	if c.PointPolicy(0) != PolicyStatic || c.PointWorkload(0) != WorkloadAdversarial {
		t.Fatalf("point 0 is (%s, %s), want the static adversarial baseline",
			c.PointPolicy(0), c.PointWorkload(0))
	}
	last := c.NumPoints() - 1
	if c.PointPolicy(last) != PolicyAdaptive || c.PointWorkload(last) != WorkloadChurn {
		t.Fatalf("last point is (%s, %s)", c.PointPolicy(last), c.PointWorkload(last))
	}
}

func TestSweepChecksRejectBadGrids(t *testing.T) {
	c := quickSweep([]string{"nosuch"}, nil)
	if err := c.Check(); err == nil {
		t.Fatal("unknown policy accepted")
	}
	c = quickSweep(nil, []string{"nosuch"})
	if err := c.Check(); err == nil {
		t.Fatal("unknown workload accepted")
	}
	c = quickSweep(nil, nil)
	c.Epochs = -1
	if err := c.Check(); err == nil {
		t.Fatal("negative epochs accepted")
	}
	// {"horizon_ps":3,"epochs":5}: an empty epoch would report zero
	// goodput without an error, so admission must refuse it.
	c = quickSweep(nil, nil)
	c.HorizonPs, c.Epochs = 3, 5
	if err := c.Check(); err == nil {
		t.Fatal("zero-length epochs accepted")
	}
}

// TestSweepAdaptiveBeatsStatic runs the static × adaptive adversarial
// corner of the grid and checks the assembled mom_vs_static column:
// static pins 1.0, the adaptive policies come in under it.
func TestSweepAdaptiveBeatsStatic(t *testing.T) {
	c := quickSweep([]string{PolicyStatic, PolicyLeastLoaded}, []string{WorkloadAdversarial})
	var points []SweepPoint
	for k := 0; k < c.NumPoints(); k++ {
		pt, rep, err := c.RunPoint(context.Background(), k)
		if err != nil {
			t.Fatalf("point %d: %v", k, err)
		}
		if n := len(rep.Violations()); n > 0 {
			t.Fatalf("point %d: %d invariant violations", k, n)
		}
		points = append(points, pt)
	}
	table, viol := c.Assemble(points)
	if viol != 0 {
		t.Fatalf("sweep reported %d violations", viol)
	}
	col := -1
	for i, n := range table.Names {
		if n == "mom_vs_static" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("table misses mom_vs_static: %v", table.Names)
	}
	if got := table.Rows[0][col]; got != 1.0 {
		t.Fatalf("static vs itself is %v, want 1.0", got)
	}
	if got := table.Rows[1][col]; got >= 1.0 || got <= 0 {
		t.Fatalf("leastloaded mom_vs_static %v, want in (0,1) — must beat the static baseline", got)
	}
}

// TestSweepWorkerByteIdentity: the assembled table must be identical
// across worker counts — the checkpoint/resume contract.
func TestSweepWorkerByteIdentity(t *testing.T) {
	out := make([]string, 2)
	for i, workers := range []int{1, 5} {
		c := quickSweep([]string{PolicyStatic, PolicyAdaptive}, []string{WorkloadAdversarial, WorkloadChurn})
		c.Workers = workers
		var points []SweepPoint
		for k := 0; k < c.NumPoints(); k++ {
			pt, _, err := c.RunPoint(context.Background(), k)
			if err != nil {
				t.Fatalf("point %d: %v", k, err)
			}
			points = append(points, pt)
		}
		table, _ := c.Assemble(points)
		var b strings.Builder
		if err := table.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		out[i] = b.String()
	}
	if out[0] != out[1] {
		t.Fatal("sweep table differs between worker counts")
	}
}

// TestSweepPointOutOfRange: the grid bounds are enforced.
func TestSweepPointOutOfRange(t *testing.T) {
	c := quickSweep([]string{PolicyStatic}, []string{WorkloadAdversarial})
	if _, _, err := c.RunPoint(context.Background(), 1); err == nil {
		t.Fatal("out-of-grid point accepted")
	}
}
