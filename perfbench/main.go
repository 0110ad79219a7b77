// Command perfbench is the repository's end-to-end and per-layer
// benchmark. Each workload puts one layer of the simulator under load
// through that layer's public functions; see README.md for why each
// workload exists and which end-to-end metric each layer metric
// should move.
//
//	bash perfbench/run.sh --workload switch_64b --seed 1 --seconds 35 --trace 0
//
// A run repeats rounds of the workload until --seconds have passed.
// Every round has a set-up phase and a measured phase, both timed, and
// every round's outputs are checked. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run spends half its time untraced and half traced (timing
// wrappers plus a CPU profile) and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// defaultSeed is the seed the pinned digests belong to.
const defaultSeed = 1

// profileTol is the largest difference, in share of the measured
// phase, allowed between a layer's share by the benchmark's timers and
// by the CPU profile (switch workloads; see profileGap).
const profileTol = 0.10

// minRounds is the fewest rounds a run (or each half of a traced run)
// makes, however short --seconds is.
const minRounds = 3

// round is one set-up phase plus one measured phase of a workload.
type round struct {
	setup   float64   // host seconds before the measured phase
	wall    float64   // host seconds of the measured phase
	jobs    []float64 // host seconds of each job the round completed
	packets int64     // simulated packets the round moved
	mppsSec float64   // host seconds those packets took
	digest  string    // digest of the round's outputs; equal for every round of one seed
	rssMB   float64   // peak resident set size during the round
	checked int       // operations whose outputs were checked
	failed  []string  // one message per failed check

	// Traced rounds only: per-layer values and the sum of the layer
	// self times, which make up wall by construction (reported as
	// trace.reconcile_gap, not checked).
	layers    map[string]float64
	explained float64
}

// runner runs a workload's rounds. Traced rounds wrap the layers in
// timers and must leave every output byte-identical to untraced ones.
type runner interface {
	round(traced bool) (round, error)
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed uint64) (runner, error){
	"switch_64b":   func(seed uint64) (runner, error) { return newSwitch(seed, 64), nil },
	"switch_jumbo": func(seed uint64) (runner, error) { return newSwitch(seed, 9000), nil },
	"arena_grid":   func(seed uint64) (runner, error) { return newArena(seed) },
	"daemon_jobs":  func(seed uint64) (runner, error) { return newDaemon(seed) },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: switch_64b|switch_jumbo|arena_grid|daemon_jobs")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 35, "measuring time per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload switch_64b|switch_jumbo|arena_grid|daemon_jobs, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	// One P: the simulations are single-threaded, and on a shared
	// 2-vCPU host a second P mostly added cross-CPU hand-offs and a
	// concurrent GC worker whose speed depends on the other tenants,
	// which made runs measurably less steady.
	runtime.GOMAXPROCS(1)
	if err := pinOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: not pinned to one CPU:", err)
	}
	w, err := mk(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(*name, w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// run measures the workload and builds the result line.
func run(name string, w runner, seed uint64, seconds float64, traced bool) (result, error) {
	budget := seconds
	if traced {
		budget = seconds / 2
	}
	plain, err := rounds(w, false, budget)
	if err != nil {
		return result{}, err
	}
	var tr []round
	var prof []byte
	if traced {
		stop, err := startProfile()
		if err != nil {
			return result{}, err
		}
		tr, err = rounds(w, true, budget)
		prof = stop()
		if err != nil {
			return result{}, err
		}
	}

	var res result
	fail := func(msg string) {
		res.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", msg)
	}
	want, pinned := pinnedDigests[name]
	if seed != defaultSeed {
		pinned = false
	}
	first := plain[0].digest
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d rounds, output digest %s\n",
		name, seed, len(plain)+len(tr), first)
	for _, r := range append(plain, tr...) {
		res.Attempted += r.checked
		for _, msg := range r.failed {
			fail(msg)
		}
		// Every round, traced or not, must produce the same outputs.
		res.Attempted++
		switch {
		case r.digest != first:
			fail(fmt.Sprintf("digest %s differs from the first round's %s", r.digest, first))
		case pinned && r.digest != want:
			fail(fmt.Sprintf("digest %s differs from the pinned %s at seed %d", r.digest, want, seed))
		}
	}
	var samples []sample
	if traced {
		if samples, err = decodeProfile(prof); err != nil {
			return result{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	profGap := 0.0
	if sw, ok := w.(*switchWL); ok && traced {
		res.Attempted++
		profGap = sw.profileGap(tr, samples)
		if profGap > profileTol {
			fail(fmt.Sprintf("layer shares by timers and by the CPU profile differ by %.1f points (limit %.0f)",
				100*profGap, 100*profileTol))
		}
	}
	res.Correct = res.Failed == 0

	if traced {
		res.Metrics = perLayer(plain, tr, samples)
		res.Metrics["trace.profile_gap"] = metric{profGap, "ratio"}
	} else {
		res.Metrics = endToEnd(plain)
	}
	return res, nil
}

// rounds runs rounds until budget seconds have passed, and at least
// minRounds of them.
func rounds(w runner, traced bool, budget float64) ([]round, error) {
	start := time.Now()
	var out []round
	for len(out) < minRounds || time.Since(start).Seconds() < budget {
		// Start every round from a collected heap handed back to the
		// kernel, so no round pays for the previous round's garbage and
		// each round's peak RSS is its own.
		debug.FreeOSMemory()
		resetPeakRSS()
		r, err := w.round(traced)
		if err != nil {
			return nil, err
		}
		r.rssMB = peakRSSMB()
		if traced && r.layers == nil {
			r.layers = map[string]float64{}
		}
		out = append(out, r)
	}
	return out, nil
}

// endToEnd reduces untraced rounds to the end-to-end metrics: each
// round-level figure is its midMean over the rounds, and the job
// percentiles pool the jobs of all rounds.
func endToEnd(rs []round) map[string]metric {
	var jobs []float64
	for _, r := range rs {
		jobs = append(jobs, r.jobs...)
	}
	return map[string]metric{
		"setup_s":     {midMean(field(rs, func(r round) float64 { return r.setup })), "s"},
		"wall_s":      {midMean(field(rs, func(r round) float64 { return r.wall })), "s"},
		"peak_rss_mb": {midMean(field(rs, func(r round) float64 { return r.rssMB })), "MB"},
		"sim_mpps": {midMean(field(rs, func(r round) float64 {
			return ratio(float64(r.packets), r.mppsSec) / 1e6
		})), "Mpkt/s"},
		"jobs_per_s": {midMean(field(rs, func(r round) float64 {
			return ratio(float64(len(r.jobs)), sum(r.jobs))
		})), "1/s"},
		"job_p50_s": {quantile(jobs, 0.5), "s"},
		"job_p90_s": {quantile(jobs, 0.9), "s"},
	}
}

// perLayer reduces traced rounds to the per-layer metrics: the median
// of each layer value over the rounds, the CPU profile's per-package
// shares, and the tracing overhead against the untraced rounds.
// Layers a workload does not exercise read 0.
func perLayer(plain, rs []round, samples []sample) map[string]metric {
	wall := func(r round) float64 { return r.wall }
	gap := func(r round) float64 { return (r.wall - r.explained) / r.wall }
	out := map[string]metric{
		"trace.overhead_frac": {median(field(rs, wall))/median(field(plain, wall)) - 1, "ratio"},
		"trace.reconcile_gap": {median(field(rs, gap)), "ratio"},
	}
	for _, l := range layerMetrics {
		vals := make([]float64, len(rs))
		for i, r := range rs {
			vals[i] = r.layers[l.name]
		}
		out[l.name] = metric{median(vals), l.unit}
	}
	for pkg, share := range cpuShares(samples) {
		out["cpu."+pkg+".share"] = metric{share, "ratio"}
	}
	return out
}

// layerMetrics lists every per-layer metric a round can fill, with its
// unit, in the order README.md describes them.
var layerMetrics = []struct{ name, unit string }{
	{"traffic.next_calls", "count"},
	{"traffic.ns_per_next", "ns"},
	{"traffic.self_s", "s"},
	{"hbmswitch.advance_self_s", "s"},
	{"hbmswitch.finish_s", "s"},
	{"sim.events", "count"},
	{"sim.events_per_pkt", "ratio"},
	{"sim.cascade_events", "count"},
	{"sim.ns_per_event", "ns"},
	{"packet.pool_hit_ratio", "ratio"},
	{"packet.allocs_per_pkt", "ratio"},
	{"hbm.frames_written", "count"},
	{"hbm.frames_read", "count"},
	{"hbm.frames_bypassed", "count"},
	{"arch.cell_s.sps", "s"},
	{"arch.cell_s.oq", "s"},
	{"arch.cell_s.cq", "s"},
	{"arch.cell_s.spray", "s"},
	{"arch.cell_s.pps", "s"},
	{"arch.cell_s.mesh", "s"},
	{"workload.stream_s.uniform", "s"},
	{"workload.stream_s.heavytail", "s"},
	{"workload.stream_s.onoff", "s"},
	{"workload.stream_s.diurnal", "s"},
	{"workload.stream_s.replay", "s"},
	{"workload.regen_share", "ratio"},
	{"serve.submit_s", "s"},
	{"serve.queue_wait_s", "s"},
	{"serve.run_s", "s"},
	{"serve.result_s", "s"},
	{"serve.overhead_s", "s"},
}

// pinOneCPU binds every thread of the process, and so every thread it
// starts later, to the highest-numbered CPU it may run on. With one P
// the work is serial anyway; pinned, it never migrates to a vCPU whose
// private cache holds none of its data, and waking a goroutine never
// has to wake a halted second vCPU, which on a shared VM costs a
// varying detour through the hypervisor.
func pinOneCPU() error {
	var mask [16]uint64 // 1024 CPUs
	size := unsafe.Sizeof(mask)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask))); e != 0 {
		return e
	}
	cpu := -1
	for i := range 64 * len(mask) {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return fmt.Errorf("empty affinity mask")
	}
	one := [16]uint64{}
	one[cpu/64] = 1 << (cpu % 64)
	// The runtime may start a thread while the list is walked; a new
	// thread inherits its creator's mask, so a second pass catches any
	// thread started by one not yet pinned.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), size, uintptr(unsafe.Pointer(&one))); e != 0 {
				return e
			}
		}
	}
	return nil
}

// resetPeakRSS restarts the kernel's peak-RSS mark at the current RSS
// (Linux 4.0+). Where that is not allowed the mark keeps the process's
// lifetime peak, which only makes later rounds read high.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	defer f.Close()
	_, _ = f.Write([]byte("5")) // best effort, as above
}

// peakRSSMB returns the peak resident set size since the last reset:
// VmHWM from /proc/self/status, else the lifetime peak from getrusage.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func field(rs []round, f func(round) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a / b, or 0 when b is 0 (a round whose every job failed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midMean is the interquartile mean: the mean of xs without its lowest
// and highest quarter. Like the median it ignores a few stalled rounds;
// unlike the median it does not snap to one of two groups when a run
// spans a change in the host's speed, but lands in between, which
// keeps run-to-run figures closer together.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 4
	return sum(s[cut:len(s)-cut]) / float64(len(s)-2*cut)
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// pinnedDigests are each workload's output digests at defaultSeed:
// the switch report JSON, the arena's points and table, and the
// daemon's reference results (which every HTTP result must equal).
// A change that alters simulated behaviour changes them on purpose.
var pinnedDigests = map[string]string{
	"switch_64b":   "5e2bf90ab4f57f86",
	"switch_jumbo": "f377828ed6edb06e",
	"arena_grid":   "3af2176735b8b3d8",
	"daemon_jobs":  "0127441ca6f52263",
}
