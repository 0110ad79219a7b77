package resilience

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"pbrouter/internal/sim"
	"pbrouter/internal/telemetry"
)

// cliQuick mirrors `spsresil -quick -sweep <mode>`.
func cliQuick(mode string) SweepConfig {
	c := SweepConfig{Mode: mode, HorizonPs: 30 * sim.Microsecond, MaxFailed: 1, Points: 2}
	if mode == ModeMTBF {
		c.MTBFPs, c.MTTRPs = c.HorizonPs/3, c.HorizonPs/6
	}
	c.Normalize()
	return c
}

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

// TestQuickSweepsMatchFixtures rebuilds both quick sweeps point by
// point and requires the assembled table and every point's epoch
// series to match the fixtures `make resil` also checks.
func TestQuickSweepsMatchFixtures(t *testing.T) {
	for _, mode := range []string{ModeFailedSwitches, ModeMTBF} {
		name := strings.ReplaceAll(mode, "-", "_")
		t.Run(name, func(t *testing.T) {
			c := cliQuick(mode)
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
				matchGolden(t, fmt.Sprintf("testdata/quick_%s_series_%d.csv", name, k), rep.Series)
			}
			table, _ := c.Assemble(pts)
			matchGolden(t, "testdata/quick_"+name+".csv", table)
		})
	}
}
