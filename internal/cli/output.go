package cli

import (
	"fmt"
	"os"
	"strings"

	"pbrouter/internal/telemetry"
)

// WriteSeries writes a telemetry series to path: "-" means stdout, a
// ".json" suffix selects the JSON schema, anything else CSV.
func WriteSeries(path string, s telemetry.Series) error {
	if path == "-" {
		return s.WriteCSV(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		err = s.WriteJSON(f)
	} else {
		err = s.WriteCSV(f)
	}
	if err != nil {
		return err
	}
	return f.Close()
}

// WriteTable writes a sweep table as the sweep commands' -out and
// -json flags ask: asJSON forces JSON, to stdout for "-" and otherwise
// to path with a ".json" suffix added when missing; without it the
// table goes through WriteSeries.
func WriteTable(path string, asJSON bool, table telemetry.Series) error {
	if asJSON && path == "-" {
		return table.WriteJSON(os.Stdout)
	}
	if asJSON && !strings.HasSuffix(path, ".json") {
		path += ".json"
	}
	return WriteSeries(path, table)
}

// SweepOutput holds the output flags every sweep command (spsresil,
// spssplit, spsarch) shares and writes what they ask for.
type SweepOutput struct {
	Out      string // -out: table path, see WriteTable
	JSON     bool   // -json
	Series   string // -series: per-point series prefix; empty writes none
	Validate bool   // -validate: invariant violations fail the run
}

// WritePoint writes sweep point k's series to <Series><k>.csv when a
// prefix was given.
func (o SweepOutput) WritePoint(k int, s telemetry.Series) error {
	if o.Series == "" {
		return nil
	}
	return WriteSeries(fmt.Sprintf("%s%d.csv", o.Series, k), s)
}

// Finish writes the assembled sweep table and returns the run's
// outcome. Under Validate, any violation is reported on stderr and
// fails the run; without it violations are ignored.
func (o SweepOutput) Finish(table telemetry.Series, violations int) Outcome {
	if err := WriteTable(o.Out, o.JSON, table); err != nil {
		return Outcome{RunErr: err}
	}
	if !o.Validate {
		return Outcome{}
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d invariant violations across the sweep\n", violations)
	}
	return Outcome{Violations: violations}
}

// WriteTrace writes Chrome trace-event JSON to path ("-" for stdout);
// the file opens directly in Perfetto (ui.perfetto.dev).
func WriteTrace(path string, t *telemetry.Tracer) error {
	if path == "-" {
		return t.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}
