package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pbrouter/internal/resilience"
	"pbrouter/internal/serve"
	"pbrouter/internal/sim"
)

// Compatibility pins for the on-disk and /metrics surfaces of both
// daemons. The files under testdata/compat were written by spsd and
// spsfleet before the two shared one job server: a checkpoint each,
// taken with one of three units done, and each daemon's /metrics
// shape.

// compatSpsdSpec has units slow enough (hundreds of milliseconds) that
// a drain issued right after the first one lands mid-second.
func compatSpsdSpec() serve.Spec {
	return serve.Spec{Kind: serve.KindResilience, Resilience: &resilience.SweepConfig{
		Mode: resilience.ModeFailedSwitches, MaxFailed: 2,
		HorizonPs: 60 * sim.Microsecond, Seed: 7,
	}}
}

// awaitUnits polls until the job has at least n units done.
func awaitUnits(t *testing.T, status func(string) (serve.Status, bool), id string, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st, ok := status(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.UnitsDone >= n {
			return
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s ended %s with %d units, want %d", id, st.State, st.UnitsDone, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// spsdDrainedAfterOneUnit runs compatSpsdSpec on an spsd checkpointing
// to dir, drains it once the first unit is done, and returns the
// checkpoint file the daemon left behind.
func spsdDrainedAfterOneUnit(t *testing.T, dir string) []byte {
	t.Helper()
	srv, err := serve.New(serve.Config{Workers: 1, CheckpointDir: dir, DrainGrace: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	j, err := srv.Submit(compatSpsdSpec())
	if err != nil {
		t.Fatal(err)
	}
	awaitUnits(t, srv.StatusOf, j.ID, 1)
	srv.Drain(context.Background())
	return drainedCheckpoint(t, srv.StatusOf, dir, j.ID)
}

// fleetDrainedAfterOneUnit runs the quick resilience spec on a
// one-backend fleet that dispatches one unit at a time and whose
// backend holds unit 1 until cancelled, drains it once unit 0 is done,
// and returns the checkpoint file the coordinator left behind.
func fleetDrainedAfterOneUnit(t *testing.T, dir string) []byte {
	t.Helper()
	srv, err := serve.New(serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	backend := srv.Handler()
	hold := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/units" {
			body, _ := io.ReadAll(r.Body)
			var req struct {
				Unit int `json:"unit"`
			}
			if json.Unmarshal(body, &req) == nil && req.Unit == 1 {
				<-r.Context().Done()
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		backend.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		hold.Close()
		srv.Drain(context.Background())
	})
	c, err := New(Config{
		Backends: []string{hold.URL}, Fanout: 1,
		CheckpointDir: dir, DrainGrace: time.Millisecond,
		HealthInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	j, err := c.Submit(quickSpecs()["resilience"])
	if err != nil {
		t.Fatal(err)
	}
	awaitUnits(t, c.StatusOf, j.ID, 1)
	c.Drain(context.Background())
	return drainedCheckpoint(t, c.StatusOf, dir, j.ID)
}

// drainedCheckpoint checks that the drained job is queued with exactly
// one unit done and returns its checkpoint file.
func drainedCheckpoint(t *testing.T, status func(string) (serve.Status, bool), dir, id string) []byte {
	t.Helper()
	st, _ := status(id)
	if st.State != serve.StateQueued || st.UnitsDone != 1 {
		t.Fatalf("after drain: %+v, want queued with 1 unit done", st)
	}
	b, err := os.ReadFile(filepath.Join(dir, id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// metricShape reduces a Prometheus exposition to what must not drift:
// HELP and TYPE lines verbatim, and each sample's name and labels with
// its value dropped and backend URLs replaced by their index.
func metricShape(body string, backends []string) string {
	var out strings.Builder
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		for i, b := range backends {
			line = strings.ReplaceAll(line, b, "backend"+string(rune('0'+i)))
		}
		out.WriteString(line + "\n")
	}
	return out.String()
}

// scrape fetches a /metrics body.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", rec.Code)
	}
	return rec.Body.String()
}

// spsdMetricShape runs one job to completion on a fresh spsd, so every
// family has samples, and returns its /metrics shape.
func spsdMetricShape(t *testing.T) string {
	t.Helper()
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Drain(context.Background())
	j, err := srv.Submit(quickSpecs()["sim"])
	if err != nil {
		t.Fatal(err)
	}
	for st, _ := srv.StatusOf(j.ID); !st.State.Terminal(); st, _ = srv.StatusOf(j.ID) {
		time.Sleep(time.Millisecond)
	}
	return metricShape(scrape(t, srv.Handler()), nil)
}

// fleetMetricShape does the same for a one-backend spsfleet.
func fleetMetricShape(t *testing.T) string {
	t.Helper()
	c := newFleet(t, 1, nil)
	awaitFleet(t, c, quickSpecs()["sim"])
	return metricShape(scrape(t, c.Handler()), c.cfg.Backends)
}

// readCompat reads one file under testdata/compat.
func readCompat(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "compat", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointsWrittenByEarlierDaemons pins checkpoint compatibility
// both ways: each daemon resumes its committed checkpoint to the
// single-node bytes, and the same job history today writes that
// checkpoint byte for byte.
func TestCheckpointsWrittenByEarlierDaemons(t *testing.T) {
	t.Run("spsd", func(t *testing.T) {
		want := readCompat(t, "spsd/j000000.json")
		if got := spsdDrainedAfterOneUnit(t, t.TempDir()); !bytes.Equal(got, want) {
			t.Errorf("spsd checkpoint differs from the committed one:\n got: %.300s\nwant: %.300s", got, want)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "j000000.json"), want, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(serve.Config{Workers: 1, CheckpointDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		st, _ := srv.StatusOf("j000000")
		if st.UnitsDone != 1 {
			t.Fatalf("resumed with %d units done, want 1", st.UnitsDone)
		}
		srv.Start()
		defer srv.Drain(context.Background())
		for !st.State.Terminal() {
			time.Sleep(5 * time.Millisecond)
			st, _ = srv.StatusOf("j000000")
		}
		_, ref := singleNode(t, compatSpsdSpec())
		if got, _ := srv.Result("j000000"); st.State != serve.StateDone || !bytes.Equal(got, ref) {
			t.Errorf("resumed spsd job ended %s; result matches single node: %v", st.State, bytes.Equal(got, ref))
		}
	})
	t.Run("spsfleet", func(t *testing.T) {
		want := readCompat(t, "spsfleet/f000000.json")
		if got := fleetDrainedAfterOneUnit(t, t.TempDir()); !bytes.Equal(got, want) {
			t.Errorf("spsfleet checkpoint differs from the committed one:\n got: %.300s\nwant: %.300s", got, want)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "f000000.json"), want, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{Backends: []string{newBackend(t).URL, newBackend(t).URL}, CheckpointDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		st, _ := c.StatusOf("f000000")
		if st.UnitsDone != 1 {
			t.Fatalf("resumed with %d units done, want 1", st.UnitsDone)
		}
		c.Start()
		defer c.Drain(context.Background())
		for !st.State.Terminal() {
			time.Sleep(5 * time.Millisecond)
			st, _ = c.StatusOf("f000000")
		}
		_, ref := singleNode(t, quickSpecs()["resilience"])
		if got, _ := c.Result("f000000"); st.State != serve.StateDone || !bytes.Equal(got, ref) {
			t.Errorf("resumed fleet job ended %s; result matches single node: %v", st.State, bytes.Equal(got, ref))
		}
	})
}

// TestMetricsShapeUnchanged pins both daemons' /metrics families —
// HELP and TYPE text and every sample's labels — to the committed
// shapes.
func TestMetricsShapeUnchanged(t *testing.T) {
	for name, got := range map[string]func(*testing.T) string{
		"spsd.txt":     spsdMetricShape,
		"spsfleet.txt": fleetMetricShape,
	} {
		want := string(readCompat(t, "metrics/"+name))
		if g := got(t); g != want {
			t.Errorf("%s /metrics shape changed:\n got:\n%s\nwant:\n%s", name, g, want)
		}
	}
}
