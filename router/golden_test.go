package router

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden assertions for the fully deterministic experiments: these
// rows must reproduce the paper bit-for-bit on every platform. The
// stochastic experiments are covered by tolerance checks elsewhere.
func TestGoldenDeterministicRows(t *testing.T) {
	cases := []struct {
		exp  string
		row  string // row name
		want string // exact measured string
	}{
		{"E1", "I/O per direction", "655.36Tb/s"},
		{"E1", "total package I/O", "1310.72Tb/s"},
		{"E1", "per-HBM-switch memory I/O", "81.92Tb/s"},
		{"E1", "HBM switch port rate P", "2.56Tb/s"},
		{"E9", "processing + SRAM per switch", "400 W"},
		{"E9", "HBM stacks per switch", "300 W"},
		{"E9", "total per switch", "794 W"},
		{"E10", "per-switch area (chiplet + 4 HBM)", "1284 mm²"},
		{"E10", "package area (16 switches)", "20544 mm²"},
		{"E10", "panel utilization", "8.2%"},
		{"E13", "package ingress / Cisco 8201-32FH ingress", "51.2x"},
	}
	results := map[string]*Result{}
	for _, c := range cases {
		res, ok := results[c.exp]
		if !ok {
			var err error
			res, err = RunExperiment(c.exp, Options{Quick: true, Seed: 1})
			if err != nil {
				t.Fatalf("%s: %v", c.exp, err)
			}
			results[c.exp] = res
		}
		found := false
		for _, row := range res.Rows {
			if row.Name == c.row {
				found = true
				if row.Measured != c.want {
					t.Errorf("%s %q: measured %q want %q", c.exp, c.row, row.Measured, c.want)
				}
			}
		}
		if !found {
			t.Errorf("%s: row %q missing", c.exp, c.row)
		}
	}
}

// TestParallelMatchesSequential is the determinism regression for the
// sweep engine: every experiment rewired onto runSweep/sweepReps must
// produce byte-for-byte the same table at Parallelism 1 and 8.
func TestParallelMatchesSequential(t *testing.T) {
	rewired := []string{"E2", "E3", "E4", "E5", "E6", "E11", "E12", "E15", "A1", "A2", "A3"}
	for _, id := range rewired {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			seq, err := RunExperiment(id, Options{Quick: true, Seed: 1, Parallelism: 1})
			if err != nil {
				t.Fatalf("sequential: %v", err)
			}
			par, err := RunExperiment(id, Options{Quick: true, Seed: 1, Parallelism: 8})
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if len(par.Rows) != len(seq.Rows) {
				t.Fatalf("row count: parallel %d, sequential %d", len(par.Rows), len(seq.Rows))
			}
			for i := range seq.Rows {
				if par.Rows[i] != seq.Rows[i] {
					t.Errorf("row %d differs:\n  sequential %+v\n  parallel   %+v", i, seq.Rows[i], par.Rows[i])
				}
			}
			if len(par.Notes) != len(seq.Notes) {
				t.Fatalf("note count: parallel %d, sequential %d", len(par.Notes), len(seq.Notes))
			}
			for i := range seq.Notes {
				if par.Notes[i] != seq.Notes[i] {
					t.Errorf("note %d differs:\n  sequential %q\n  parallel   %q", i, seq.Notes[i], par.Notes[i])
				}
			}
			if par.SimTime != seq.SimTime {
				t.Errorf("SimTime: parallel %v, sequential %v", par.SimTime, seq.SimTime)
			}
		})
	}
}

// TestRepsReportCI checks the replicated path: Reps > 1 switches the
// replicated experiments to mean ± CI rows, while Reps <= 1 keeps the
// legacy single-run format (asserted byte-for-byte by the golden and
// determinism tests above).
func TestRepsReportCI(t *testing.T) {
	for _, id := range []string{"E5", "E12"} {
		res, err := RunExperiment(id, Options{Quick: true, Seed: 1, Reps: 3})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		found := false
		for _, row := range res.Rows {
			if strings.Contains(row.Measured, "±") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s with Reps:3: no row reports a ± confidence interval", id)
		}
	}
}

// TestGoldenSRAMTotal pins the E8 headline number.
func TestGoldenSRAMTotal(t *testing.T) {
	res, err := RunExperiment("E8", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Measured != "14.50 MB" {
		t.Fatalf("SRAM total %q want 14.50 MB", res.Rows[0].Measured)
	}
}

// TestExpAllQuickMatchesFixture pins every experiment's quick seed-1
// output byte for byte, stochastic rows included: testdata/
// exp_all_quick.json is `spsbench -exp all -quick -format json`. E5's
// ideal-OQ shadow ratios are in it, so any change to the per-packet
// path that moves a delay, a drop or a departure order fails here.
func TestExpAllQuickMatchesFixture(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "exp_all_quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, e := range Experiments() {
		res, err := e.Run(Options{Quick: true, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if err := res.WriteJSON(&got, e.ID); err != nil {
			t.Fatal(err)
		}
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("experiment %d differs from the fixture:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}
