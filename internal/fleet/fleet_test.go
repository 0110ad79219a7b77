package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pbrouter/internal/arch"
	"pbrouter/internal/resilience"
	"pbrouter/internal/serve"
	"pbrouter/internal/sim"
	"pbrouter/internal/workload"
)

// quickSpecs is one small deterministic spec per job kind, multi-unit
// where the kind supports it.
func quickSpecs() map[string]serve.Spec {
	return map[string]serve.Spec{
		"sim": {Kind: serve.KindSim, Sim: &serve.SimSpec{
			Load: 0.5, HorizonPs: 2 * sim.Microsecond, Seed: 3,
		}},
		"sweep": {Kind: serve.KindSweep, Sweep: &serve.SweepSpec{
			Experiment: "E1", Quick: true, Seed: 1,
		}},
		"validate": {Kind: serve.KindValidate, Validate: &serve.ValidateSpec{
			Seed: 2, Cases: 20, HorizonUs: 1,
		}},
		"resilience": {Kind: serve.KindResilience, Resilience: &resilience.SweepConfig{
			Mode: resilience.ModeFailedSwitches, MaxFailed: 2,
			HorizonPs: 5 * sim.Microsecond, Seed: 5,
		}},
		"arch": {Kind: serve.KindArch, Arch: &arch.SweepConfig{
			Archs:     []string{arch.ArchOQ, arch.ArchCQ},
			Workloads: []string{workload.KindUniform},
			N:         4, HorizonPs: 4 * sim.Microsecond, Seed: 5,
		}},
	}
}

// newBackend starts one real spsd over httptest and registers cleanup.
func newBackend(t *testing.T) *httptest.Server {
	t.Helper()
	srv, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain(context.Background())
	})
	return ts
}

// newFleet builds and starts a coordinator over n fresh backends.
func newFleet(t *testing.T, n int, mutate func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{
		RetryBackoff:    5 * time.Millisecond,
		UnitIdleTimeout: 10 * time.Second,
		HealthInterval:  50 * time.Millisecond,
	}
	for i := 0; i < n; i++ {
		cfg.Backends = append(cfg.Backends, newBackend(t).URL)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(func() { c.Drain(context.Background()) })
	return c
}

// awaitFleet submits the spec and waits for the job to go terminal.
func awaitFleet(t *testing.T, c *Coordinator, spec serve.Spec) serve.Status {
	t.Helper()
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, ok := c.StatusOf(j.ID)
		if !ok {
			t.Fatalf("job %s vanished", j.ID)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", j.ID, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// singleNode runs the spec on a standalone spsd and returns its
// terminal status and result bytes — the byte-identity reference.
func singleNode(t *testing.T, spec serve.Spec) (serve.Status, []byte) {
	t.Helper()
	srv, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain(context.Background())
	j, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, ok := srv.StatusOf(j.ID)
		if !ok {
			t.Fatalf("job %s vanished", j.ID)
		}
		if st.State.Terminal() {
			res, _ := srv.Result(j.ID)
			return st, res
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", j.ID, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetByteIdentity pins the coordinator's core contract: for
// every job kind and fleet sizes 1, 2, and 4, the fleet result is
// byte-identical to a single-node spsd run at the same seed.
func TestFleetByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-geometry fleet matrix")
	}
	for name, spec := range quickSpecs() {
		spec := spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			_, want := singleNode(t, spec)
			if len(want) == 0 {
				t.Fatal("reference run produced no result")
			}
			for _, n := range []int{1, 2, 4} {
				c := newFleet(t, n, nil)
				st := awaitFleet(t, c, spec)
				if st.State != serve.StateDone {
					t.Fatalf("%d backends: job ended %s: %s", n, st.State, st.Error)
				}
				got, ok := c.Result(st.ID)
				if !ok {
					t.Fatalf("%d backends: no result", n)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%d backends: fleet result differs from single node\n got: %.200s\nwant: %.200s",
						n, got, want)
				}
			}
		})
	}
}

// TestFleetSchedulersByteIdentity pins that the result does not
// depend on the dispatch policy: every scheduler yields the exact
// single-node bytes over a two-backend fleet.
func TestFleetSchedulersByteIdentity(t *testing.T) {
	spec := quickSpecs()["resilience"]
	_, want := singleNode(t, spec)
	for _, name := range SchedulerNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := newFleet(t, 2, func(cfg *Config) {
				cfg.Scheduler = name
				cfg.Seed = 42
			})
			st := awaitFleet(t, c, spec)
			if st.State != serve.StateDone {
				t.Fatalf("job ended %s: %s", st.State, st.Error)
			}
			got, _ := c.Result(st.ID)
			if !bytes.Equal(got, want) {
				t.Errorf("scheduler %s: fleet result differs from single node", name)
			}
		})
	}
}

// TestFleetFoundError pins the failed-with-result contract: a job
// whose spec deterministically finds violations ends failed on both a
// single node and the fleet, with byte-identical full results.
func TestFleetFoundError(t *testing.T) {
	noShrink := false
	spec := serve.Spec{Kind: serve.KindValidate, Validate: &serve.ValidateSpec{
		Seed: 1, Cases: 3, Fault: "fixed-group", Shrink: &noShrink,
	}}
	refSt, want := singleNode(t, spec)
	if refSt.State != serve.StateFailed {
		t.Fatalf("reference run ended %s, want failed", refSt.State)
	}
	if len(want) == 0 {
		t.Fatal("reference failure carries no result")
	}
	c := newFleet(t, 2, nil)
	st := awaitFleet(t, c, spec)
	if st.State != serve.StateFailed {
		t.Fatalf("fleet job ended %s, want failed", st.State)
	}
	got, ok := c.Result(st.ID)
	if !ok {
		t.Fatal("fleet failure must carry the full result")
	}
	if !bytes.Equal(got, want) {
		t.Error("fleet failed-with-result bytes differ from single node")
	}
	if st.Error != refSt.Error {
		t.Errorf("fleet error %q, single-node error %q", st.Error, refSt.Error)
	}
}

// TestFleetCheckpointResume pins failover from checkpoint state: a
// coordinator that starts over a checkpoint with some units already
// complete runs only the remainder and still produces the exact
// single-node bytes.
func TestFleetCheckpointResume(t *testing.T) {
	spec := quickSpecs()["resilience"]
	spec.Normalize()
	if err := spec.Check(); err != nil {
		t.Fatal(err)
	}
	n := spec.UnitCount()
	if n < 2 {
		t.Fatalf("want a multi-unit spec, got %d units", n)
	}
	// Precompute the first unit, as a dead coordinator would have
	// checkpointed it.
	payload, err := serve.RunUnit(context.Background(), spec, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	env, err := json.Marshal(unitEnvelope{Unit: 0, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cp := serve.Checkpoint{
		ID:    "f000007",
		State: serve.StateRunning, // died mid-run; must resume as queued
		Spec:  spec,
		Units: []json.RawMessage{env},
	}
	if err := serve.WriteCheckpointFile(dir, cp); err != nil {
		t.Fatal(err)
	}

	c := newFleet(t, 2, func(cfg *Config) { cfg.CheckpointDir = dir })
	deadline := time.Now().Add(2 * time.Minute)
	var st serve.Status
	for {
		var ok bool
		st, ok = c.StatusOf("f000007")
		if !ok {
			t.Fatal("resumed job not found")
		}
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job stuck in state %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != serve.StateDone {
		t.Fatalf("resumed job ended %s: %s", st.State, st.Error)
	}
	got, _ := c.Result("f000007")
	_, want := singleNode(t, spec)
	if !bytes.Equal(got, want) {
		t.Error("resumed fleet result differs from single node")
	}
	// The resumed unit must not have been dispatched again.
	info := c.FleetInfo()
	dispatched := 0
	for _, b := range info.Backends {
		dispatched += b.UnitsOK
	}
	if dispatched != n-1 {
		t.Errorf("dispatched %d units after resume, want %d (unit 0 was checkpointed)",
			dispatched, n-1)
	}
	// New jobs must not collide with the resumed ID space.
	j, err := c.Submit(quickSpecs()["sim"])
	if err != nil {
		t.Fatal(err)
	}
	if j.ID <= "f000007" {
		t.Errorf("new job ID %s does not advance past the resumed checkpoint", j.ID)
	}
}

// TestFleetAPI pins the spsd-compatible HTTP surface plus /fleet.
func TestFleetAPI(t *testing.T) {
	c := newFleet(t, 2, func(cfg *Config) { cfg.Scheduler = SchedRoundRobin })
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	spec := quickSpecs()["sim"]
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(time.Minute)
	for !st.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.Get(ts.URL + "/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	if st.State != serve.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	r, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("result: HTTP %d", r.StatusCode)
	}

	fr, err := http.Get(ts.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Body.Close()
	var info Info
	if err := json.NewDecoder(fr.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Service != "spsfleet" || info.Scheduler != SchedRoundRobin {
		t.Errorf("fleet info = %+v", info)
	}
	if len(info.Backends) != 2 {
		t.Fatalf("fleet info lists %d backends, want 2", len(info.Backends))
	}
	ok := 0
	for _, b := range info.Backends {
		ok += b.UnitsOK
	}
	if ok == 0 {
		t.Error("no successful unit dispatches recorded")
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mr.Body)
	for _, want := range []string{"spsfleet_up 1", "spsfleet_backend_up", "spsfleet_jobs_total"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestFleetRejects pins admission validation.
func TestFleetRejects(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without backends must fail")
	}
	if _, err := New(Config{Backends: []string{"http://x"}, Scheduler: "nope"}); err == nil {
		t.Error("New with unknown scheduler must fail")
	}
	c := newFleet(t, 1, nil)
	if _, err := c.Submit(serve.Spec{Kind: serve.Kind("nope")}); err == nil {
		t.Error("Submit with unknown kind must fail")
	}
}

// TestFleetSubmitBodyIsBounded pins the shared submit edge on the
// coordinator: a body past the 1 MiB bound gets 413 in the usual
// error envelope.
func TestFleetSubmitBodyIsBounded(t *testing.T) {
	c := newFleet(t, 1, nil)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	body := `{"kind":"sim","sim":{"matrix":"` + strings.Repeat("x", 1<<20) + `"}}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("413 body is not the error envelope: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: HTTP %d, want 413", resp.StatusCode)
	}
}
