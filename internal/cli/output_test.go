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
