package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pbrouter/internal/sim"
	"pbrouter/internal/telemetry"
)

func TestWriteSeriesPicksFormatBySuffix(t *testing.T) {
	s := telemetry.Series{
		Names: []string{"a"},
		Times: []sim.Time{1, 2},
		Rows:  [][]float64{{10}, {11}},
	}
	dir := t.TempDir()

	csvPath := filepath.Join(dir, "out.csv")
	if err := WriteSeries(csvPath, s); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "a") || strings.Contains(string(csv), "{") {
		t.Errorf(".csv output not CSV:\n%s", csv)
	}

	jsonPath := filepath.Join(dir, "out.json")
	if err := WriteSeries(jsonPath, s); err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), "{") {
		t.Errorf(".json output not JSON:\n%s", js)
	}

	if err := WriteSeries(filepath.Join(dir, "missing", "out.csv"), s); err == nil {
		t.Error("unwritable path accepted")
	}
}

func TestWriteTrace(t *testing.T) {
	tr, err := telemetry.NewTracer(1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "[") {
		t.Errorf("trace output not JSON:\n%s", b)
	}
	if err := WriteTrace(filepath.Join(t.TempDir(), "missing", "t.json"), tr); err == nil {
		t.Error("unwritable path accepted")
	}
}

func TestWriteTableJSONAddsSuffix(t *testing.T) {
	s := telemetry.Series{Names: []string{"a"}, Times: []sim.Time{1}, Rows: [][]float64{{10}}}
	dir := t.TempDir()
	if err := WriteTable(filepath.Join(dir, "grid"), true, s); err != nil {
		t.Fatal(err)
	}
	js, err := os.ReadFile(filepath.Join(dir, "grid.json"))
	if err != nil || !strings.Contains(string(js), "{") {
		t.Errorf("-json without .json suffix: %v %q", err, js)
	}
	if err := WriteTable(filepath.Join(dir, "grid.csv"), false, s); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "grid.csv"))
	if err != nil || strings.Contains(string(csv), "{") {
		t.Errorf("CSV table: %v %q", err, csv)
	}
}

func TestSweepOutputWritePoint(t *testing.T) {
	s := telemetry.Series{Names: []string{"a"}, Times: []sim.Time{1}, Rows: [][]float64{{10}}}
	if err := (SweepOutput{}).WritePoint(0, s); err != nil {
		t.Fatalf("no prefix: %v", err)
	}
	prefix := filepath.Join(t.TempDir(), "pt_")
	if err := (SweepOutput{Series: prefix}).WritePoint(3, s); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(prefix + "3.csv")
	if err != nil || !strings.HasPrefix(string(csv), "time_ps,a\n") {
		t.Errorf("point series: %v %q", err, csv)
	}
}

// TestSweepOutputFinish pins the shared sweep tail: the table is
// written, and violations fail the run (with one FAIL line on stderr)
// only under Validate.
func TestSweepOutputFinish(t *testing.T) {
	s := telemetry.Series{Names: []string{"a"}, Times: []sim.Time{1}, Rows: [][]float64{{10}}}
	dir := t.TempDir()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer func(saved *os.File) { os.Stderr = saved }(os.Stderr)
	os.Stderr = stderr

	out := filepath.Join(dir, "grid.csv")
	cases := []struct {
		validate   bool
		violations int
		code       int
	}{
		{true, 0, ExitOK},
		{false, 2, ExitOK},
		{true, 2, ExitFailure},
	}
	for _, tc := range cases {
		o := SweepOutput{Out: out, Validate: tc.validate}.Finish(s, tc.violations)
		if o.Code() != tc.code {
			t.Errorf("validate=%v violations=%d: exit %d, want %d", tc.validate, tc.violations, o.Code(), tc.code)
		}
	}
	if csv, err := os.ReadFile(out); err != nil || !strings.HasPrefix(string(csv), "time_ps,a\n") {
		t.Errorf("table: %v %q", err, csv)
	}
	logged, _ := os.ReadFile(stderr.Name())
	if want := "FAIL: 2 invariant violations across the sweep\n"; string(logged) != want {
		t.Errorf("stderr %q, want %q", logged, want)
	}

	o := SweepOutput{Out: filepath.Join(dir, "missing", "grid.csv")}.Finish(s, 0)
	if o.RunErr == nil {
		t.Error("unwritable table path accepted")
	}
}
