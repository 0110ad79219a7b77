package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"pbrouter/internal/parallel"
	"pbrouter/internal/serve"
	"pbrouter/internal/sim"
)

// daemonWL is an in-process spsd — one job worker, served on loopback
// — driven by one closed-loop client. Each job is a small sim job;
// the client submits it, follows its NDJSON stream to the end (never
// polling, so latency is not quantized by a poll period), fetches the
// result, and only then submits the next job.
type daemonWL struct {
	specs  []serve.Spec // normalized, in submission rotation order
	bodies [][]byte     // POST /jobs bodies, one per spec
}

// Daemon workload sizes: daemonSpecs distinct sim jobs (IMIX, 200 ns
// horizon, seeds derived from the run's seed), submitted round-robin,
// daemonJobs per round.
const (
	daemonSpecs   = 32
	daemonJobs    = 192
	daemonHorizon = 200 * sim.Nanosecond
)

func newDaemon(seed uint64) (*daemonWL, error) {
	d := &daemonWL{}
	for i := 0; i < daemonSpecs; i++ {
		spec := serve.Spec{Kind: serve.KindSim, Sim: &serve.SimSpec{
			Sizes: "imix", HorizonPs: daemonHorizon, Seed: parallel.Seed(seed, i),
		}}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		spec.Normalize()
		if err := spec.Check(); err != nil {
			return nil, err
		}
		d.specs = append(d.specs, spec)
		d.bodies = append(d.bodies, body)
	}
	return d, nil
}

// daemon is one started server with its loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	served chan error
}

func startDaemon() (*daemon, error) {
	srv, err := serve.New(serve.Config{Workers: 1, JobParallelism: 1, QueueDepth: 4})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server and the job workers down and waits for
// both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.srv.Drain(ctx)
	return err
}

// jobTiming is one job's client-side timing.
type jobTiming struct {
	id     string
	sent   time.Time // when the client began the POST
	recvd  time.Time // when the result's last byte was read
	total  float64   // seconds from sent to recvd
	result float64   // seconds of the GET result round trip
}

func (w *daemonWL) round(traced bool) (round, error) {
	// Set-up: start the daemon and compute every job's reference
	// result in-process, through the same unit path the CLI uses.
	t0 := time.Now()
	d, err := startDaemon()
	if err != nil {
		return round{}, err
	}
	r, err := w.measure(d, t0, traced)
	if serr := d.stop(); err == nil {
		err = serr
	}
	return r, err
}

// measure finishes the set-up begun at t0 and runs the measured phase
// against the started daemon.
func (w *daemonWL) measure(d *daemon, t0 time.Time, traced bool) (round, error) {
	ctx := context.Background()
	refs := make([][]byte, len(w.specs))
	digest := sha256.New()
	for i, spec := range w.specs {
		unit, err := serve.RunUnit(ctx, spec, 0, 1)
		if err != nil {
			return round{}, fmt.Errorf("reference job %d: %w", i, err)
		}
		if refs[i], err = serve.AssembleUnits(spec, []json.RawMessage{unit}); err != nil {
			return round{}, fmt.Errorf("reference job %d: %w", i, err)
		}
		digest.Write(refs[i])
	}
	// One client, one connection: MaxConnsPerHost holds the client to
	// the single keep-alive connection it reuses job after job.
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	setup := time.Since(t0).Seconds()

	var (
		jobs    []jobTiming
		failed  []string
		packets int64
	)
	t1 := time.Now()
	for i := 0; i < daemonJobs; i++ {
		k := i % len(w.specs)
		jt, res, err := runJob(client, d.base, w.bodies[k])
		if err != nil {
			failed = append(failed, fmt.Sprintf("job %d: %v", i, err))
			continue
		}
		if !bytes.Equal(res, refs[k]) {
			failed = append(failed, fmt.Sprintf("job %d (%s): result differs from the in-process run", i, jt.id))
			continue
		}
		var rep struct {
			DeliveredPackets int64 `json:"delivered_packets"`
		}
		if err := json.Unmarshal(res, &rep); err != nil {
			failed = append(failed, fmt.Sprintf("job %d: %v", i, err))
			continue
		}
		packets += rep.DeliveredPackets
		jobs = append(jobs, jt)
	}
	wall := time.Since(t1).Seconds()

	r := round{
		setup:   setup,
		wall:    wall,
		packets: packets,
		mppsSec: wall,
		digest:  hex.EncodeToString(digest.Sum(nil)[:8]),
		checked: daemonJobs,
		failed:  failed,
	}
	for _, j := range jobs {
		r.jobs = append(r.jobs, j.total)
	}
	if traced && len(jobs) > 0 {
		if err := serveLayers(&r, client, d.base, jobs); err != nil {
			return round{}, err
		}
	}
	return r, nil
}

// serveLayers fills a traced round's serve.* metrics from the
// daemon's own job timestamps, read after the measured phase: submit
// runs from the client's POST to the job's admission, then come queue
// wait and run. The rest of each job's client-side latency is serving
// overhead (HTTP, JSON, stream fan-out). Per job, queue wait + run +
// overhead is therefore the job's latency by construction; their sum
// is reported as trace.reconcile_gap, not checked. What is checked,
// once per job, is that the daemon's stamps, taken on its own
// goroutines, fall in order inside the client's interval for the job:
// sent <= submitted <= started <= finished <= result received. The
// POST's own round trip is not used: on one P the job worker runs as
// soon as the job is queued, so the client reads the POST's reply
// only after the job has run.
func serveLayers(r *round, client *http.Client, base string, jobs []jobTiming) error {
	var submit, queue, run, result []float64
	for _, j := range jobs {
		var det struct {
			Submitted, Started, Finished time.Time
		}
		if err := getJSON(client, base+"/api/v1/jobs/"+j.id, &det); err != nil {
			return err
		}
		r.checked++
		if det.Submitted.Before(j.sent) || det.Started.Before(det.Submitted) ||
			det.Finished.Before(det.Started) || j.recvd.Before(det.Finished) {
			r.failed = append(r.failed, fmt.Sprintf("job %s: daemon stamps submitted %s, started %s, finished %s "+
				"out of order or outside the client's %s .. %s", j.id,
				det.Submitted.Format(time.RFC3339Nano), det.Started.Format(time.RFC3339Nano),
				det.Finished.Format(time.RFC3339Nano), j.sent.Format(time.RFC3339Nano),
				j.recvd.Format(time.RFC3339Nano)))
		}
		q := det.Started.Sub(det.Submitted).Seconds()
		x := det.Finished.Sub(det.Started).Seconds()
		submit = append(submit, det.Submitted.Sub(j.sent).Seconds())
		queue = append(queue, q)
		run = append(run, x)
		result = append(result, j.result)
		r.explained += j.total
	}
	r.layers = map[string]float64{
		"serve.submit_s":     median(submit),
		"serve.queue_wait_s": median(queue),
		"serve.run_s":        median(run),
		"serve.result_s":     median(result),
		"serve.overhead_s":   median(r.jobs) - median(run),
	}
	return nil
}

// runJob runs one job over HTTP: submit, follow the stream until it
// ends, fetch the result.
func runJob(client *http.Client, base string, body []byte) (jobTiming, []byte, error) {
	t0 := time.Now()
	jt := jobTiming{sent: t0}
	resp, err := client.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jt, nil, err
	}
	var st serve.Status
	err = decodeBody(resp, http.StatusAccepted, &st)
	jt.id = st.ID
	if err != nil {
		return jt, nil, fmt.Errorf("submit: %w", err)
	}

	resp, err = client.Get(base + "/jobs/" + st.ID + "/stream")
	if err != nil {
		return jt, nil, err
	}
	state, err := lastState(resp)
	if err != nil {
		return jt, nil, fmt.Errorf("stream: %w", err)
	}
	if state != serve.StateDone {
		return jt, nil, fmt.Errorf("job %s ended %s", st.ID, state)
	}

	t2 := time.Now()
	resp, err = client.Get(base + "/jobs/" + st.ID + "/result")
	if err != nil {
		return jt, nil, err
	}
	res, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return jt, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return jt, nil, fmt.Errorf("result: HTTP %d", resp.StatusCode)
	}
	t3 := time.Now()
	jt.result = t3.Sub(t2).Seconds()
	jt.recvd = t3
	jt.total = t3.Sub(t0).Seconds()
	return jt, res, nil
}

// lastState reads an NDJSON job stream to its end and returns the last
// state the job reported.
func lastState(resp *http.Response) (serve.State, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var state serve.State
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Event string      `json:"event"`
			State serve.State `json:"state"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", err
		}
		if ev.Event == "state" {
			state = ev.State
		}
	}
	return state, sc.Err()
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	return decodeBody(resp, http.StatusOK, v)
}

// decodeBody decodes a JSON response with the wanted status and always
// drains and closes the body, so the connection can be reused.
func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}
