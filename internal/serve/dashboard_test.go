package serve

import (
	"io/fs"
	"regexp"
	"strings"
	"testing"

	"pbrouter/internal/web"
)

// TestDashboardKnowsEveryKind pins the contract between the job-kind
// list (Kinds) and the embedded dashboard: every Kind the daemon
// accepts must be filterable in the job list, composable in the
// scenario composer, and have a composer schema — otherwise a new kind
// is submittable over the API but invisible in the UI.
func TestDashboardKnowsEveryKind(t *testing.T) {
	assets := web.Assets()
	index := mustAsset(t, assets, "index.html")
	composer := mustAsset(t, assets, "composer.js")

	for _, k := range Kinds {
		opt := "<option>" + string(k) + "</option>"
		if n := strings.Count(index, opt); n < 2 {
			t.Errorf("kind %q appears %d times as %s in index.html; want it in both the job filter and the composer", k, n, opt)
		}
		// SCHEMAS keys are written unquoted at the top level: `  sim: [`.
		if !regexp.MustCompile(`(?m)^\s{2}` + string(k) + `: \[$`).MatchString(composer) {
			t.Errorf("kind %q has no SCHEMAS entry in composer.js", k)
		}
	}

	// The arena's telemetry preset: the chart dropdown offers it and
	// app.js maps it onto the arch.* probe columns.
	if !strings.Contains(index, `value="arch"`) {
		t.Error("index.html chart presets lost the arch arena entry")
	}
	app := mustAsset(t, assets, "app.js")
	if !strings.Contains(app, "arch: (names)") {
		t.Error("app.js PRESETS lost the arch entry")
	}

	// The composer's list expansion must cover the arch sweep's plural
	// fields, or a composed job silently runs the full default grid.
	for _, want := range []string{"body.archs = [body.arch]", "body.workloads = [body.workload]"} {
		if !strings.Contains(composer, want) {
			t.Errorf("composer.js buildSpec lost list expansion %q", want)
		}
	}
}

func mustAsset(t *testing.T, assets fs.FS, name string) string {
	t.Helper()
	b, err := fs.ReadFile(assets, name)
	if err != nil {
		t.Fatalf("embedded asset %s: %v", name, err)
	}
	return string(b)
}
