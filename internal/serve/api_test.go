package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/sim"
	"pbrouter/internal/telemetry"
)

// api is the default mount prefix the tests exercise; Config leaves it
// empty so New fills in the same default spsd ships with.
const api = "/api/v1"

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	code, body := getBody(t, url)
	if code == http.StatusOK {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: bad JSON %v: %s", url, err, body)
		}
	}
	return code
}

// quickSimSpec is a sim job small enough to finish in well under a
// second, with a packet trace attached.
func quickSimSpec(seed uint64) []byte {
	return []byte(fmt.Sprintf(
		`{"kind":"sim","sim":{"load":0.5,"horizon_ps":5000000,"seed":%d,"trace_sample":64}}`, seed))
}

// TestAPISeriesTraceAndResultMatchCLISerializers is the dashboard's
// byte-identity contract: the /api/v1 series, trace, and result
// payloads must equal what the CLI code path — the same spec resolved
// through hbmswitch with the same telemetry writers — produces at the
// same seed.
func TestAPISeriesTraceAndResultMatchCLISerializers(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	raw := quickSimSpec(3)
	st := submit(t, ts.URL, raw)
	if end := waitFor(t, ts.URL, st.ID, func(s Status) bool { return s.State.Terminal() }); end.State != StateDone {
		t.Fatalf("job ended %s: %s", end.State, end.Error)
	}

	// The in-process twin of `spssim -json -telemetry - -trace -`:
	// same spec normalization, same switch, same writers.
	var spec Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	spec.Normalize()
	cfg := spec.Sim.Config()
	sw, err := hbmswitch.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := telemetry.New(sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	tracer, err := telemetry.NewTracer(spec.Sim.TraceSample)
	if err != nil {
		t.Fatal(err)
	}
	sw.Instrument(reg, tracer, "", 0)
	stream, err := spec.Sim.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sw.Run(stream, spec.Sim.HorizonPs)
	if err != nil {
		t.Fatal(err)
	}
	var wantResult, wantSeriesJSON, wantSeriesCSV, wantTrace bytes.Buffer
	if err := rep.WriteJSON(&wantResult); err != nil {
		t.Fatal(err)
	}
	ser := reg.Series()
	if err := ser.WriteJSON(&wantSeriesJSON); err != nil {
		t.Fatal(err)
	}
	if err := ser.WriteCSV(&wantSeriesCSV); err != nil {
		t.Fatal(err)
	}
	if err := tracer.WriteJSON(&wantTrace); err != nil {
		t.Fatal(err)
	}

	base := ts.URL + api + "/jobs/" + st.ID
	for _, c := range []struct {
		url  string
		want []byte
	}{
		{base + "/result", wantResult.Bytes()},
		{base + "/series", wantSeriesJSON.Bytes()},
		{base + "/series?format=json", wantSeriesJSON.Bytes()},
		{base + "/series?format=csv", wantSeriesCSV.Bytes()},
		{base + "/trace", wantTrace.Bytes()},
	} {
		code, got := getBody(t, c.url)
		if code != http.StatusOK {
			t.Errorf("GET %s: HTTP %d", c.url, code)
			continue
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("GET %s differs from CLI serialization:\n got: %.200s\nwant: %.200s", c.url, got, c.want)
		}
	}

	// The trace downloads with a Perfetto-friendly filename.
	resp, err := http.Get(base + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cd := resp.Header.Get("Content-Disposition"); !strings.Contains(cd, st.ID+"-trace.json") {
		t.Errorf("trace Content-Disposition = %q", cd)
	}
}

// TestAPIDetailAndArtifactErrors covers the job-detail wire form and
// the 404/400 paths of the artifact endpoints.
func TestAPIDetailAndArtifactErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// A resilience job has one series per sweep point and no trace.
	spec := []byte(`{"kind":"resilience","resilience":{"mode":"failed-switches","max_failed":1,"horizon_ps":10000000,"seed":5}}`)
	st := submit(t, ts.URL, spec)
	waitFor(t, ts.URL, st.ID, func(s Status) bool { return s.State.Terminal() })

	var d JobDetail
	if code := getJSON(t, ts.URL+api+"/jobs/"+st.ID, &d); code != http.StatusOK {
		t.Fatalf("detail: HTTP %d", code)
	}
	if d.ID != st.ID || d.Spec.Kind != KindResilience || d.State != StateDone {
		t.Errorf("detail = %+v", d)
	}
	if len(d.SeriesPoints) != 2 || d.SeriesPoints[0] != 0 || d.SeriesPoints[1] != 1 {
		t.Errorf("series_points = %v, want [0 1]", d.SeriesPoints)
	}
	if d.HasTrace || d.Checkpointed {
		t.Errorf("has_trace=%v checkpointed=%v, want false/false", d.HasTrace, d.Checkpointed)
	}
	for name, stamp := range map[string]string{"submitted": d.Submitted, "started": d.Started, "finished": d.Finished} {
		if _, err := time.Parse(time.RFC3339Nano, stamp); err != nil {
			t.Errorf("%s stamp %q: %v", name, stamp, err)
		}
	}

	// Both sweep points serve series; the trace endpoint 404s.
	for _, pt := range d.SeriesPoints {
		if code, _ := getBody(t, fmt.Sprintf("%s%s/jobs/%s/series?point=%d", ts.URL, api, st.ID, pt)); code != http.StatusOK {
			t.Errorf("series point %d: HTTP %d", pt, code)
		}
	}
	for url, want := range map[string]int{
		api + "/jobs/" + st.ID + "/series?point=9":     http.StatusNotFound,
		api + "/jobs/" + st.ID + "/series?point=x":     http.StatusBadRequest,
		api + "/jobs/" + st.ID + "/series?format=yaml": http.StatusBadRequest,
		api + "/jobs/" + st.ID + "/trace":              http.StatusNotFound,
		api + "/jobs/nope":                             http.StatusNotFound,
		api + "/jobs/nope/series":                      http.StatusNotFound,
		api + "/jobs/nope/trace":                       http.StatusNotFound,
		api + "/jobs?offset=-1":                        http.StatusBadRequest,
		api + "/jobs?limit=zap":                        http.StatusBadRequest,
	} {
		if code, body := getBody(t, ts.URL+url); code != want {
			t.Errorf("GET %s: HTTP %d, want %d (%s)", url, code, want, body)
		}
	}
}

// TestAPIListPaginationAndFilters drives GET /api/v1/jobs: newest
// first, state and kind filters, and stable paging.
func TestAPIListPaginationAndFilters(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, submit(t, ts.URL, quickSimSpec(uint64(i+1))).ID)
	}
	ids = append(ids, submit(t, ts.URL, []byte(`{"kind":"validate","validate":{"seed":2,"cases":2}}`)).ID)
	for _, id := range ids {
		waitFor(t, ts.URL, id, func(s Status) bool { return s.State.Terminal() })
	}

	var all JobList
	getJSON(t, ts.URL+api+"/jobs", &all)
	if all.Total != 4 || len(all.Jobs) != 4 || all.Limit != defaultListLimit {
		t.Fatalf("list = total %d, %d jobs, limit %d", all.Total, len(all.Jobs), all.Limit)
	}
	for i, j := range all.Jobs { // newest submission first
		if want := ids[len(ids)-1-i]; j.ID != want {
			t.Errorf("jobs[%d] = %s, want %s", i, j.ID, want)
		}
	}

	// Page through two at a time; pages concatenate to the full list.
	var paged []string
	for off := 0; off < all.Total; off += 2 {
		var page JobList
		getJSON(t, fmt.Sprintf("%s%s/jobs?offset=%d&limit=2", ts.URL, api, off), &page)
		if page.Total != 4 || page.Offset != off || page.Limit != 2 {
			t.Errorf("page@%d: total %d offset %d limit %d", off, page.Total, page.Offset, page.Limit)
		}
		for _, j := range page.Jobs {
			paged = append(paged, j.ID)
		}
	}
	for i, j := range all.Jobs {
		if paged[i] != j.ID {
			t.Errorf("paged[%d] = %s, full list has %s", i, paged[i], j.ID)
		}
	}

	var sims JobList
	getJSON(t, ts.URL+api+"/jobs?kind=sim", &sims)
	if sims.Total != 3 {
		t.Errorf("kind=sim total = %d, want 3", sims.Total)
	}
	var done JobList
	getJSON(t, ts.URL+api+"/jobs?state=done&kind=validate", &done)
	if done.Total != 1 || done.Jobs[0].Spec.Kind != KindValidate {
		t.Errorf("state=done&kind=validate = %+v", done)
	}
	var none JobList
	getJSON(t, ts.URL+api+"/jobs?state=queued", &none)
	if none.Total != 0 || len(none.Jobs) != 0 {
		t.Errorf("state=queued = %+v, want empty (jobs slice non-nil)", none)
	}

	// The limit is capped, and an out-of-range offset yields an empty page.
	var capped JobList
	getJSON(t, fmt.Sprintf("%s%s/jobs?limit=%d", ts.URL, api, 10*maxListLimit), &capped)
	if capped.Limit != maxListLimit {
		t.Errorf("limit capped to %d, want %d", capped.Limit, maxListLimit)
	}
	var beyond JobList
	getJSON(t, ts.URL+api+"/jobs?offset=100", &beyond)
	if beyond.Total != 4 || len(beyond.Jobs) != 0 {
		t.Errorf("offset=100 = total %d, %d jobs", beyond.Total, len(beyond.Jobs))
	}
}

// TestAPIServerAndQueueInfo pins the introspection surface: build and
// pool identity, the §2.2 reference geometry, and the event-core
// counters advancing after a run.
func TestAPIServerAndQueueInfo(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, QueueDepth: 7, JobParallelism: 2})
	st := submit(t, ts.URL, quickSimSpec(1))
	waitFor(t, ts.URL, st.ID, func(s Status) bool { return s.State.Terminal() })

	var info ServerInfo
	if code := getJSON(t, ts.URL+api+"/server", &info); code != http.StatusOK {
		t.Fatalf("server: HTTP %d", code)
	}
	if info.Service != "spsd" || info.GoVersion == "" || info.Scheduler != "wheel" {
		t.Errorf("identity = %+v", info)
	}
	if info.Workers != 3 || info.QueueCapacity != 7 || info.JobParallelism != 2 || info.Checkpointing {
		t.Errorf("pool config = %+v", info)
	}
	g := info.Geometry
	if g.Ribbons != 16 || g.FibersPerRibbon != 64 || g.Switches != 16 ||
		g.Wavelengths != 16 || g.ChannelGbps != 40 || g.Stacks != 4 {
		t.Errorf("geometry = %+v, want the §2.2 reference point", g)
	}
	if g.PackageTbps < 655 || g.PackageTbps > 656 {
		t.Errorf("package_tbps = %v, want ≈655.36", g.PackageTbps)
	}
	// Core counters are process-wide; this run made them non-zero.
	if info.Core.Runs == 0 || info.Core.Events == 0 {
		t.Errorf("core counters not advancing: %+v", info.Core)
	}

	var q QueueInfo
	if code := getJSON(t, ts.URL+api+"/queue", &q); code != http.StatusOK {
		t.Fatalf("queue: HTTP %d", code)
	}
	if q.Capacity != 7 || q.Workers != 3 || q.Draining ||
		len(q.Running) != 0 || len(q.Queued) != 0 || q.Depth != 0 {
		t.Errorf("idle queue = %+v", q)
	}
}

// TestAPISubmitIsComposerPath: the dashboard's composer POSTs to
// /api/v1/jobs; the accepted job is the same job the legacy route
// sees, and both result endpoints serve identical bytes.
func TestAPISubmitIsComposerPath(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+api+"/jobs", "application/json",
		bytes.NewReader([]byte(`{"kind":"validate","validate":{"seed":2,"cases":2}}`)))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("composer submit: HTTP %d", resp.StatusCode)
	}
	waitFor(t, ts.URL, st.ID, func(s Status) bool { return s.State.Terminal() })
	_, legacy := getBody(t, ts.URL+"/jobs/"+st.ID+"/result")
	code, api := getBody(t, ts.URL+api+"/jobs/"+st.ID+"/result")
	if code != http.StatusOK || !bytes.Equal(legacy, api) {
		t.Errorf("API result differs from legacy route (HTTP %d)", code)
	}
}

// TestStreamSlowConsumerReplaysFullBacklog: a follower that reads far
// slower than the job publishes must still see every event exactly
// once, in order — the backlog replay in handleStream may never skip
// or duplicate under backpressure.
func TestStreamSlowConsumerReplaysFullBacklog(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := []byte(`{"kind":"resilience","resilience":{"mode":"failed-switches","max_failed":2,"horizon_ps":40000000,"seed":9}}`)
	st := submit(t, ts.URL, spec)

	// Attach while running so the reader straddles backlog and live
	// phases, then read one line at a time with a delay.
	waitFor(t, ts.URL, st.ID, func(s Status) bool { return s.State == StateRunning })
	resp, err := http.Get(ts.URL + api + "/jobs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var slow []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		slow = append(slow, sc.Text())
		if len(slow)%8 == 0 {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("slow read: %v", err)
	}

	// The closed stream replays the identical full log to a fast reader.
	waitFor(t, ts.URL, st.ID, func(s Status) bool { return s.State.Terminal() })
	_, full := getBody(t, ts.URL+"/jobs/"+st.ID+"/stream")
	want := strings.Split(strings.TrimSpace(string(full)), "\n")
	if len(slow) != len(want) {
		t.Fatalf("slow consumer saw %d lines, full log has %d", len(slow), len(want))
	}
	for i := range want {
		if slow[i] != want[i] {
			t.Fatalf("line %d differs under slow consumption:\n got: %s\nwant: %s", i, slow[i], want[i])
		}
	}
}

// TestAPIListConcurrentWithCompletions hammers pagination and detail
// reads while jobs finish — meaningful chiefly under -race, proving
// the read-side API takes the same locks as the job table writers.
func TestAPIListConcurrentWithCompletions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 32})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var page JobList
				getJSON(t, fmt.Sprintf("%s%s/jobs?offset=%d&limit=3", ts.URL, api, i%4), &page)
				for _, j := range page.Jobs {
					var d JobDetail
					getJSON(t, ts.URL+api+"/jobs/"+j.ID, &d)
				}
				var q QueueInfo
				getJSON(t, ts.URL+api+"/queue", &q)
			}
		}(r)
	}
	var ids []string
	for i := 0; i < 8; i++ {
		ids = append(ids, submit(t, ts.URL, quickSimSpec(uint64(i+1))).ID)
	}
	for _, id := range ids {
		waitFor(t, ts.URL, id, func(s Status) bool { return s.State.Terminal() })
	}
	close(stop)
	wg.Wait()

	var all JobList
	getJSON(t, ts.URL+api+"/jobs?state=done", &all)
	if all.Total != 8 {
		t.Errorf("after the dust settles: %d done jobs, want 8", all.Total)
	}
}
