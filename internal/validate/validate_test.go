package validate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
)

func TestGenerateDeterministic(t *testing.T) {
	distinct := false
	prev := Generate(0)
	for _, seed := range []uint64{0, 1, 7919, 1 << 40, ^uint64(0)} {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate is not deterministic:\n%+v\n%+v", seed, a, b)
		}
		if !reflect.DeepEqual(a, prev) {
			distinct = true
		}
		prev = a
	}
	if !distinct {
		t.Fatal("every seed generated the same scenario")
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 99, 538493} {
		sc := Generate(seed)
		var buf bytes.Buffer
		if err := sc.WriteJSON(&buf); err != nil {
			t.Fatalf("seed %d: write: %v", seed, err)
		}
		got, err := ReadScenario(&buf)
		if err != nil {
			t.Fatalf("seed %d: read: %v", seed, err)
		}
		if !reflect.DeepEqual(sc, got) {
			t.Fatalf("seed %d: round trip changed the scenario:\n%+v\n%+v", seed, sc, got)
		}
	}
}

// TestSizeDistRejectsOversizeFixed checks a fixed-size scenario is
// bounded by packet.MaxSize, as the trace readers are, so its size
// fits Packet's int32 Size.
func TestSizeDistRejectsOversizeFixed(t *testing.T) {
	for _, tc := range []struct {
		bytes int
		ok    bool
	}{
		{packet.MaxSize, true},
		{packet.MaxSize + 1, false},
		{1 << 31, false},
		{0, false},
	} {
		sc := Scenario{Sizes: "fixed", FixedBytes: tc.bytes}
		if _, err := sc.SizeDist(); (err == nil) != tc.ok {
			t.Errorf("fixed_bytes %d: err=%v, want accepted=%v", tc.bytes, err, tc.ok)
		}
	}
}

// TestRandomizedSweep is the harness's standing check: a randomized
// sweep over the scenario space must report zero violations on the
// healthy model. The acceptance sweep is `spsvalidate -cases 200`.
func TestRandomizedSweep(t *testing.T) {
	cases := 30
	if testing.Short() {
		cases = 8
	}
	res := Sweep(SweepOptions{Seed: 1, Cases: cases, Shrink: true, Repeat: true})
	for _, f := range res.Failing {
		t.Errorf("case %d: %s", f.Index, f.Verdict.Summary())
		for _, v := range f.Verdict.Violations {
			t.Errorf("    %s", v)
		}
	}
	if res.Failures != 0 {
		t.Fatalf("%d of %d randomized cases failed", res.Failures, res.Cases)
	}
}

// TestWorkloadWidening pins the draw-last widening contract for the
// realistic-workload knob: the generator reaches every new workload
// kind across seeds, every earlier field of a widened scenario is
// identical to the same seed's scenario with the knob forced off
// (RNG-stream safety), and a widened scenario validates clean.
func TestWorkloadWidening(t *testing.T) {
	seen := map[string]bool{}
	var widened *Scenario
	for seed := uint64(1); seed < 400 && (len(seen) < 3 || widened == nil); seed++ {
		sc := Generate(seed)
		if sc.Workload == "" {
			continue
		}
		seen[sc.Workload] = true
		// Erasing only the workload must reproduce the classic scenario
		// for this seed — the widening draw comes after every other.
		classic := sc
		classic.Workload = ""
		if fmt.Sprintf("%+v", classic) == fmt.Sprintf("%+v", sc) {
			t.Fatalf("seed %d: widened scenario indistinguishable from classic", seed)
		}
		if widened == nil && sc.HorizonUs <= 12 {
			widened = &sc
		}
	}
	for _, kind := range []string{"heavytail", "onoff", "diurnal"} {
		if !seen[kind] {
			t.Errorf("workload kind %q never generated in 400 seeds", kind)
		}
	}
	if widened == nil {
		t.Fatal("no short widened scenario in 400 seeds")
	}
	v := RunWith(*widened, Options{Repeat: true})
	if v.Failed() {
		t.Fatalf("widened scenario failed: %s", v.Summary())
	}
	if v.Packets == 0 {
		t.Fatal("widened scenario delivered no packets")
	}
}

// TestFixedGroupMutationDetected proves the differential oracle has
// teeth: breaking the n mod (L/γ) placement rule must be caught, and
// the failure must shrink to a replayable reproducer that still fails
// after a JSON round trip.
func TestFixedGroupMutationDetected(t *testing.T) {
	sc := Generate(1).Mutated(FaultFixedGroup)
	v := RunWith(sc, Options{})
	if !hasInvariant(v.Violations, InvBankResidency) {
		t.Fatalf("fixed-group fault escaped detection: %s", v.Summary())
	}

	shrunk, trace := Shrink(sc, v.Violations, 0)
	if len(trace) == 0 {
		t.Fatal("shrinker accepted no reductions on a multi-knob scenario")
	}
	sv := RunWith(shrunk, Options{})
	if !hasInvariant(sv.Violations, InvBankResidency) {
		t.Fatalf("shrunk scenario no longer reproduces: %s", sv.Summary())
	}

	var buf bytes.Buffer
	if err := shrunk.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	replay, err := ReadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rv := RunWith(replay, Options{})
	if !hasInvariant(rv.Violations, InvBankResidency) {
		t.Fatalf("JSON-replayed reproducer no longer fails: %s", rv.Summary())
	}
}

// TestStarveMutationDetected: a memory path without the §4 speedup
// cannot mimic the OQ shadow — the behavioural oracles must notice.
func TestStarveMutationDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("starve regime needs a long steady window")
	}
	sc := Generate(7920).Mutated(FaultStarve)
	v := RunWith(sc, Options{})
	if !v.Failed() {
		t.Fatalf("starved switch passed validation: %s", v.Summary())
	}
	for _, want := range []string{InvSRAMBudget, InvMimicryGap} {
		if !hasInvariant(v.Violations, want) {
			t.Errorf("starve fault did not trip %s; got %s", want, v.Summary())
		}
	}
}

// TestFixtureRegressions replays every shrunk reproducer committed
// under testdata: each captures a once-detected defect and must keep
// failing, or the harness has lost a detector.
func TestFixtureRegressions(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no reproducer fixtures found in testdata")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			sc, err := ReadScenario(f)
			if err != nil {
				t.Fatal(err)
			}
			v := RunWith(sc, Options{})
			if !v.Failed() {
				t.Fatalf("fixture no longer fails: %s", v.Summary())
			}
		})
	}
}

// TestSweepWorkerIndependence: verdicts, fingerprints, and shrunk
// reproducers must be byte-identical for any worker count.
func TestSweepWorkerIndependence(t *testing.T) {
	opts := SweepOptions{Seed: 1, Cases: 6, Fault: FaultFixedGroup, Shrink: true}
	marshal := func(workers int) []byte {
		opts.Workers = workers
		var buf bytes.Buffer
		if err := Sweep(opts).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	j1, j8 := marshal(1), marshal(8)
	if !bytes.Equal(j1, j8) {
		t.Fatalf("sweep results differ between -j 1 and -j 8:\n%s\n---\n%s", j1, j8)
	}
	var res SweepResult
	if err := json.Unmarshal(j1, &res); err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("fixed-group sweep found no failures; the comparison is vacuous")
	}
}

func TestCheckReport(t *testing.T) {
	cfg := hbmswitch.Reference()
	clean := func() *hbmswitch.Report {
		return &hbmswitch.Report{
			OfferedPackets: 100, DeliveredPackets: 100,
			OfferedBytes: 150000, DeliveredBytes: 150000,
			Throughput: 0.80, ShadowThroughput: 0.81, ShadowRun: true,
		}
	}
	all := Expect{FullDelivery: true, SRAMBudget: true, MimicryGap: true, MimicryBound: true}

	tests := []struct {
		name   string
		mutate func(*hbmswitch.Report)
		exp    Expect
		want   string // expected invariant, "" for no violation
	}{
		{"clean", func(r *hbmswitch.Report) {}, all, ""},
		{"model error", func(r *hbmswitch.Report) {
			r.Errors = []error{errors.New("boom")}
		}, Expect{}, InvModelErrors},
		{"packet conservation", func(r *hbmswitch.Report) {
			r.DeliveredPackets = 99
		}, Expect{}, InvConservation},
		{"byte conservation", func(r *hbmswitch.Report) {
			r.DeliveredBytes--
		}, Expect{}, InvConservation},
		{"drop under full delivery", func(r *hbmswitch.Report) {
			r.DroppedPackets, r.DeliveredPackets = 1, 99
			r.DroppedBytes, r.DeliveredBytes = 1500, 148500
		}, all, InvFullDelivery},
		{"drop tolerated when not expected", func(r *hbmswitch.Report) {
			r.DroppedPackets, r.DeliveredPackets = 1, 99
			r.DroppedBytes, r.DeliveredBytes = 1500, 148500
		}, Expect{}, ""},
		{"tail SRAM over budget", func(r *hbmswitch.Report) {
			r.TailHighWater = 1 << 40
		}, all, InvSRAMBudget},
		{"head SRAM over budget", func(r *hbmswitch.Report) {
			r.HeadHighWater = 1 << 40
		}, all, InvSRAMBudget},
		{"throughput gap", func(r *hbmswitch.Report) {
			r.Throughput = 0.70
		}, all, InvMimicryGap},
		{"gap without shadow run", func(r *hbmswitch.Report) {
			r.Throughput, r.ShadowRun = 0.70, false
		}, all, ""},
		{"relative delay unbounded", func(r *hbmswitch.Report) {
			r.RelDelayMax = sim.Time(1) * sim.Second
		}, all, InvMimicryBound},
		{"relative delay ignored without expectation", func(r *hbmswitch.Report) {
			r.RelDelayMax = sim.Time(1) * sim.Second
		}, Expect{}, ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rep := clean()
			tc.mutate(rep)
			vs := CheckReport(cfg, rep, tc.exp)
			switch {
			case tc.want == "" && len(vs) > 0:
				t.Fatalf("unexpected violations: %v", vs)
			case tc.want != "" && !hasInvariant(vs, tc.want):
				t.Fatalf("want %s, got %v", tc.want, vs)
			}
		})
	}
}

func TestMutatedPreservesBase(t *testing.T) {
	sc := Generate(5)
	fg := sc.Mutated(FaultFixedGroup)
	fg.Fault = sc.Fault
	if !reflect.DeepEqual(sc, fg) {
		t.Fatal("fixed-group mutation must only set the fault knob")
	}
	st := sc.Mutated(FaultStarve)
	if st.Speedup >= 1 {
		t.Fatalf("starve mutation kept speedup %g >= 1", st.Speedup)
	}
	if st.Pad || st.Bypass {
		t.Fatal("starve mutation must force the pure HBM write+read path")
	}
	if _, err := st.Config(); err != nil {
		t.Fatalf("starved scenario must still build: %v", err)
	}
}

func hasInvariant(vs []Violation, inv string) bool {
	for _, v := range vs {
		if v.Invariant == inv {
			return true
		}
	}
	return false
}
