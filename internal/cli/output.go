package cli

import (
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
