package splitpolicy

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"pbrouter/internal/sim"
	"pbrouter/internal/telemetry"
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

// TestQuickSweepMatchesFixtures rebuilds the `spssplit -quick` grid
// (static,leastloaded × adversarial,churn, two epochs) point by point
// and requires the assembled table and every point's split.policy.*
// series to match the fixtures `make split-smoke` also checks.
func TestQuickSweepMatchesFixtures(t *testing.T) {
	c := SweepConfig{
		Policies:  []string{PolicyStatic, PolicyLeastLoaded},
		Workloads: []string{WorkloadAdversarial, WorkloadChurn},
		HorizonPs: 8 * sim.Microsecond,
		Epochs:    2,
	}
	c.Normalize()
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	var pts []SweepPoint
	for k := 0; k < c.NumPoints(); k++ {
		pt, rep, err := c.RunPoint(context.Background(), k)
		if err != nil {
			t.Fatalf("point %d: %v", k, err)
		}
		pts = append(pts, pt)
		matchGolden(t, fmt.Sprintf("testdata/quick_series_%d.csv", k), rep.Series)
	}
	table, _ := c.Assemble(pts)
	matchGolden(t, "testdata/quick.csv", table)
}
