// Command spsload load-tests a running spsd daemon (or spsfleet
// coordinator): K concurrent clients submit a mix of quick jobs of any
// served kind, follow each job's event stream to its end, fetch the
// result, and report submit-to-complete latency percentiles.
//
// Examples:
//
//	spsload -addr localhost:9090 -clients 32 -jobs 128
//	spsload -addr localhost:9090 -kinds sim,validate -clients 8
//
// Any HTTP error, rejected submission, or job that ends in a state
// other than done counts as an error, and any error makes spsload
// exit nonzero.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pbrouter/internal/arch"
	"pbrouter/internal/cli"
	"pbrouter/internal/fleet"
	"pbrouter/internal/resilience"
	"pbrouter/internal/serve"
	"pbrouter/internal/sim"
	"pbrouter/internal/splitpolicy"
	"pbrouter/internal/stats"
	"pbrouter/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:9090", "daemon address (host:port)")
		clients  = flag.Int("clients", 8, "concurrent clients")
		jobs     = flag.Int("jobs", 32, "total jobs to submit")
		seed     = flag.Uint64("seed", 1, "base seed; job i runs with seed+i")
		kinds    = flag.String("kinds", "sim,sweep,validate,resilience", "comma-separated job kinds to mix (sim|sweep|validate|resilience|split|arch)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "per-job completion timeout")
		fleetRpt = flag.Bool("fleet", false, "print the coordinator's /fleet backend report after the run (spsfleet targets only)")
	)
	flag.Parse()
	cli.Check(
		cli.ValidateAddr(*addr),
		cli.ValidateClients(*clients),
		cli.ValidateCount("-jobs", *jobs),
	)
	mix, err := parseKinds(*kinds)
	if err != nil {
		cli.Exit(cli.Outcome{UsageErr: err})
	}

	base := "http://" + *addr
	var (
		next      atomic.Int64
		errs      atomic.Int64
		mu        sync.Mutex
		latencies []float64
		byKind    = map[serve.Kind]int{}
		wg        sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{}
			for {
				i := int(next.Add(1)) - 1
				if i >= *jobs {
					return
				}
				kind := mix[i%len(mix)]
				spec, _ := quickSpec(kind, *seed+uint64(i)) // parseKinds vetted the kind
				d, err := runOne(client, base, spec, *timeout)
				if err != nil {
					fmt.Fprintf(os.Stderr, "job %d (%s): %v\n", i, kind, err)
					errs.Add(1)
					continue
				}
				mu.Lock()
				latencies = append(latencies, d.Seconds())
				byKind[kind]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	q := stats.Quantiles(latencies, 0.50, 0.95, 0.99)
	fmt.Printf("spsload: %d jobs, %d clients, %d errors in %v (%.1f jobs/s)\n",
		*jobs, *clients, errs.Load(), wall.Round(time.Millisecond), float64(*jobs)/wall.Seconds())
	for _, k := range mix {
		fmt.Printf("  %-10s %d ok\n", k, byKind[k])
	}
	if len(latencies) > 0 {
		fmt.Printf("submit-to-complete latency: p50 %.3fs  p95 %.3fs  p99 %.3fs\n", q[0], q[1], q[2])
	}
	if *fleetRpt {
		if err := printFleetReport(base); err != nil {
			fmt.Fprintf(os.Stderr, "fleet report: %v\n", err)
			errs.Add(1)
		}
	}
	cli.Exit(cli.Outcome{Violations: int(errs.Load())})
}

// printFleetReport fetches and prints the coordinator's /fleet
// backend report — dispatch counts, health, and latency per backend.
func printFleetReport(base string) error {
	resp, err := http.Get(base + "/fleet")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var info fleet.Info
	if err := json.Unmarshal(b, &info); err != nil {
		return err
	}
	fmt.Printf("fleet: scheduler %s, %d retries, %d duplicate units\n",
		info.Scheduler, info.UnitRetries, info.DuplicateUnits)
	for _, be := range info.Backends {
		state := "up"
		if !be.Alive {
			state = "down"
		}
		fmt.Printf("  %-28s %-4s picks %-5d ok %-5d err %-4d ewma %.3fs\n",
			be.URL, state, be.Picks, be.UnitsOK, be.UnitsErr, be.LatencyEWMASeconds)
	}
	return nil
}

// parseKinds parses the -kinds mix: any kind quickSpec can build.
func parseKinds(s string) ([]serve.Kind, error) {
	var mix []serve.Kind
	for _, part := range strings.Split(s, ",") {
		k := serve.Kind(strings.TrimSpace(part))
		if _, err := quickSpec(k, 0); err != nil {
			return nil, fmt.Errorf("-kinds: %w", err)
		}
		mix = append(mix, k)
	}
	return mix, nil
}

// quickSpec builds a small deterministic job of the given kind — load
// generation should stress the daemon, not the simulator.
func quickSpec(kind serve.Kind, seed uint64) (serve.Spec, error) {
	spec := serve.Spec{Kind: kind}
	switch kind {
	case serve.KindSim:
		spec.Sim = &serve.SimSpec{Load: 0.6, HorizonPs: 2 * sim.Microsecond, Seed: seed}
	case serve.KindSweep:
		spec.Sweep = &serve.SweepSpec{Experiment: "E1", Quick: true, Seed: seed}
	case serve.KindValidate:
		spec.Validate = &serve.ValidateSpec{Seed: seed, Cases: 3, HorizonUs: 2}
	case serve.KindResilience:
		spec.Resilience = &resilience.SweepConfig{
			Mode: resilience.ModeFailedSwitches, MaxFailed: 1,
			HorizonPs: 5 * sim.Microsecond, Seed: seed,
		}
	case serve.KindSplit:
		spec.Split = &splitpolicy.SweepConfig{
			Policies:  []string{splitpolicy.PolicyStatic, splitpolicy.PolicyLeastLoaded},
			Workloads: []string{splitpolicy.WorkloadAdversarial},
			N:         4, F: 8, H: 4, HorizonPs: 4 * sim.Microsecond, Epochs: 2, Seed: seed,
		}
	case serve.KindArch:
		spec.Arch = &arch.SweepConfig{
			Archs:     []string{arch.ArchOQ, arch.ArchCQ},
			Workloads: []string{workload.KindUniform},
			N:         4, HorizonPs: 4 * sim.Microsecond, Seed: seed,
		}
	default:
		return serve.Spec{}, fmt.Errorf("unknown job kind %q", kind)
	}
	return spec, nil
}

// runOne submits one job, follows its event stream to the end, and
// fetches the result, returning the submit-to-complete latency.
func runOne(client *http.Client, base string, spec serve.Spec, timeout time.Duration) (time.Duration, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	resp, err := send(ctx, client, http.MethodPost, base+"/jobs", body)
	if err != nil {
		return 0, err
	}
	st, err := decodeStatus(resp)
	if err != nil {
		return 0, err
	}
	if resp, err = send(ctx, client, http.MethodGet, base+"/jobs/"+st.ID+"/stream", nil); err != nil {
		return 0, err
	}
	if st, err = followStream(resp, st); err != nil {
		return 0, err
	}
	d := time.Since(start)
	if st.State != serve.StateDone {
		return 0, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if resp, err = send(ctx, client, http.MethodGet, base+"/jobs/"+st.ID+"/result", nil); err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("job %s result: HTTP %d", st.ID, resp.StatusCode)
	}
	return d, nil
}

// send issues one request under the job's deadline.
func send(ctx context.Context, client *http.Client, method, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return client.Do(req)
}

// followStream reads a job's NDJSON event stream to its end and
// returns st updated by the last state event; a stream that ends
// before a terminal state is an error.
func followStream(resp *http.Response, st serve.Status) (serve.Status, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("job %s stream: HTTP %d", st.ID, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ev struct {
			Event string      `json:"event"`
			State serve.State `json:"state"`
			Error string      `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return st, fmt.Errorf("job %s stream: %w", st.ID, err)
		}
		if ev.Event == "state" {
			st.State, st.Error = ev.State, ev.Error
		}
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("job %s stream: %w", st.ID, err)
	}
	if !st.State.Terminal() {
		return st, fmt.Errorf("job %s: stream ended in state %s", st.ID, st.State)
	}
	return st, nil
}

// decodeStatus reads a job status response, surfacing API errors.
func decodeStatus(resp *http.Response) (serve.Status, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.Status{}, err
	}
	if resp.StatusCode >= 300 {
		return serve.Status{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var st serve.Status
	if err := json.Unmarshal(b, &st); err != nil {
		return serve.Status{}, err
	}
	return st, nil
}
