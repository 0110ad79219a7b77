package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pbrouter/internal/serve"
)

func TestParseKinds(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []serve.Kind // nil: rejected
	}{
		{"sim, sweep,validate,resilience", []serve.Kind{serve.KindSim, serve.KindSweep, serve.KindValidate, serve.KindResilience}},
		{"split", []serve.Kind{serve.KindSplit}},
		{"arch,sim", []serve.Kind{serve.KindArch, serve.KindSim}},
		{"sim,sweep,validate,resilience,split,arch", []serve.Kind{serve.KindSim, serve.KindSweep,
			serve.KindValidate, serve.KindResilience, serve.KindSplit, serve.KindArch}},
		{"", nil},
		{"simulate", nil},
		{"sim,,sweep", nil},
		{"mesh", nil},
	} {
		mix, err := parseKinds(c.in)
		if c.want == nil {
			if err == nil {
				t.Errorf("parseKinds(%q) accepted: %v", c.in, mix)
			}
			continue
		}
		if err != nil || len(mix) != len(c.want) {
			t.Errorf("parseKinds(%q) = %v, %v; want %v", c.in, mix, err, c.want)
			continue
		}
		for i := range c.want {
			if mix[i] != c.want[i] {
				t.Errorf("parseKinds(%q)[%d] = %s, want %s", c.in, i, mix[i], c.want[i])
			}
		}
	}
}

// TestQuickSpecsAreValid pins that the load generator can emit every
// kind the daemon accepts, that each passes the daemon's own admission
// checks, and that an unknown kind is an error rather than some other
// kind's spec.
func TestQuickSpecsAreValid(t *testing.T) {
	for _, k := range serve.Kinds {
		spec, err := quickSpec(k, 42)
		if err != nil {
			t.Fatalf("quickSpec(%s): %v", k, err)
		}
		if spec.Kind != k {
			t.Errorf("quickSpec(%s) built kind %s", k, spec.Kind)
		}
		spec.Normalize()
		if err := spec.Check(); err != nil {
			t.Errorf("quickSpec(%s) rejected: %v", k, err)
		}
	}
	if spec, err := quickSpec("mesh", 42); err == nil {
		t.Errorf("quickSpec(mesh) built a %s spec", spec.Kind)
	}
}

// newDaemon runs an in-process serve.Server behind httptest so runOne
// exercises the same HTTP client path spsload uses against spsd.
func newDaemon(t *testing.T) string {
	t.Helper()
	s, err := serve.New(serve.Config{Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func TestRunOneCompletesQuickJob(t *testing.T) {
	base := newDaemon(t)
	client := &http.Client{Timeout: 30 * time.Second}
	spec, err := quickSpec(serve.KindSim, 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := runOne(client, base, spec, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("nonpositive latency %v", d)
	}
}

func TestRunOneReportsFailedJob(t *testing.T) {
	base := newDaemon(t)
	client := &http.Client{Timeout: 30 * time.Second}
	// A faulted validation sweep completes but finds failing cases, so
	// the job ends failed — which spsload must count as an error.
	noShrink := false
	spec := serve.Spec{Kind: serve.KindValidate, Validate: &serve.ValidateSpec{
		Seed: 1, Cases: 3, Fault: "fixed-group", Shrink: &noShrink, HorizonUs: 5,
	}}
	_, err := runOne(client, base, spec, time.Minute)
	if err == nil || !strings.Contains(err.Error(), "failed") {
		t.Fatalf("want failed-job error, got %v", err)
	}
}

// TestRunOneEveryKind drives one quick job of each kind through the
// stream-following client path.
func TestRunOneEveryKind(t *testing.T) {
	base := newDaemon(t)
	client := &http.Client{Timeout: 30 * time.Second}
	for _, k := range serve.Kinds {
		spec, err := quickSpec(k, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runOne(client, base, spec, time.Minute); err != nil {
			t.Errorf("%s: %v", k, err)
		}
	}
}

func TestDecodeStatusSurfacesAPIErrors(t *testing.T) {
	base := newDaemon(t)
	resp, err := http.Get(base + "/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeStatus(resp); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("want HTTP 404 error, got %v", err)
	}
}
