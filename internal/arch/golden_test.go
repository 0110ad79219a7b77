package arch

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"pbrouter/internal/sim"
	"pbrouter/internal/telemetry"
	"pbrouter/internal/workload"
)

// matchGolden compares a series' CSV bytes with a checked-in fixture.
func matchGolden(t *testing.T, path string, s telemetry.Series) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	if err := s.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("%s differs:\n got: %s\nwant: %s", path, got.String(), want)
	}
}

// TestQuickSweepMatchesFixtures rebuilds the `spsarch -quick` grid
// (sps,oq,cq × uniform,heavytail, N=4, 8 µs) cell by cell and requires
// the assembled table and every cell's arch.* series to match the
// fixtures `make arch-smoke` also checks.
func TestQuickSweepMatchesFixtures(t *testing.T) {
	c := SweepConfig{
		Archs:     []string{ArchSPS, ArchOQ, ArchCQ},
		Workloads: []string{workload.KindUniform, workload.KindHeavyTail},
		N:         4,
		HorizonPs: 8 * sim.Microsecond,
	}
	c.Normalize()
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	var pts []SweepPoint
	for k := 0; k < c.NumPoints(); k++ {
		pt, rep, err := c.RunPoint(context.Background(), k)
		if err != nil {
			t.Fatalf("cell %d: %v", k, err)
		}
		pts = append(pts, pt)
		matchGolden(t, fmt.Sprintf("testdata/quick_series_%d.csv", k), rep.Series)
	}
	table, violations := c.Assemble(pts)
	if violations != 0 {
		t.Errorf("quick grid found %d invariant violations", violations)
	}
	matchGolden(t, "testdata/quick.csv", table)
}
