// Package validate is the differential validation harness behind the
// paper's central correctness claim: an HBM switch running PFI with a
// small speedup mimics an ideal output-queued shared-memory switch
// (§3.2 (6)), and its bookkeeping-free placement keeps frame n of an
// output in bank group n mod (L/γ).
//
// The harness generates randomized scenarios (configuration, traffic,
// and fault knobs) from a single seed, runs each through the full
// hbmswitch pipeline with the baseline.OQSwitch golden model attached,
// and checks the mimicry bound plus structural invariants observed
// online through the switch's Probe hook: packet conservation,
// per-flow FIFO order at egress, bank-group residency, per-stage SRAM
// high-water budgets, and run-to-run determinism. Failing scenarios
// are automatically shrunk to minimal reproducers serialized as
// replayable JSON (cmd/spsvalidate -replay).
package validate

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"pbrouter/internal/core"
	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
)

// Fault knobs a scenario can inject. The harness's self-tests mutate
// healthy scenarios with these to prove the detectors fire.
const (
	// FaultNone runs the model as designed.
	FaultNone = ""
	// FaultFixedGroup disables the staggered bank interleaving: every
	// frame is placed in bank group 0 instead of n mod (L/γ). Detected
	// structurally by the bank-residency invariant.
	FaultFixedGroup = "fixed-group"
	// FaultStarve under-provisions the memory path (speedup below the
	// §4 transition allowance) under near-saturating load, so the
	// switch can no longer keep up with the ideal OQ shadow. Detected
	// by the OQ throughput gap and the SRAM budget.
	FaultStarve = "starve"
)

// Scenario is one self-contained validation case: every field needed
// to rebuild the switch configuration and the exact packet sequence.
// Scenarios serialize to JSON so shrunk reproducers can be committed
// and replayed.
type Scenario struct {
	Seed   uint64 `json:"seed"`
	N      int    `json:"n"`
	Stacks int    `json:"stacks"`
	Gamma  int    `json:"gamma"`
	// SegBytes is S; FrameBytes K = γ·T·S follows from it.
	SegBytes int     `json:"seg_bytes"`
	PortGbps float64 `json:"port_gbps"`
	Speedup  float64 `json:"speedup"`

	// Matrix is uniform|diagonal|hotspot|concentrated|incast; Load is
	// the per-input offered load the matrix is built at.
	Matrix     string  `json:"matrix"`
	Load       float64 `json:"load"`
	Shift      int     `json:"shift,omitempty"`
	HotFrac    float64 `json:"hot_frac,omitempty"`
	HotOutputs int     `json:"hot_outputs,omitempty"`

	// Sizes is imix|fixed|uniform (FixedBytes applies to fixed).
	Sizes      string `json:"sizes"`
	FixedBytes int    `json:"fixed_bytes,omitempty"`
	Arrival    string `json:"arrival"` // poisson|bursty

	// Workload, when set, replaces the per-source Poisson/bursty mux
	// with a flow-level generator from internal/workload
	// (heavytail|onoff|diurnal) driven by the same matrix and seed.
	// Empty keeps the classic mux, so every scenario generated before
	// this knob existed is unchanged.
	Workload string `json:"workload,omitempty"`

	Pad     bool  `json:"pad"`
	Bypass  bool  `json:"bypass"`
	FlushNs int64 `json:"flush_ns,omitempty"`
	PadNs   int64 `json:"pad_ns,omitempty"`
	Refresh bool  `json:"refresh,omitempty"`
	// DynamicPages switches the HBM regions to the shared-page mode.
	DynamicPages int64 `json:"dynamic_pages,omitempty"`
	// SmallMemory shrinks the HBM stacks until ingress tail-drops are
	// reachable within simulation timescales, exercising the drop
	// path. Full delivery is not expected in this mode.
	SmallMemory bool `json:"small_memory,omitempty"`

	HorizonUs float64 `json:"horizon_us"`
	Fault     string  `json:"fault,omitempty"`
}

// Generate derives a healthy randomized scenario from a seed. Equal
// seeds give equal scenarios; all generated scenarios satisfy
// Config's cross-parameter validation and use admissible matrices.
func Generate(seed uint64) Scenario {
	rng := sim.NewRNG(seed)
	sc := Scenario{Seed: seed, Stacks: 1, Gamma: 4, SegBytes: 1024}
	sc.N = []int{4, 8, 16}[rng.Intn(3)]
	if rng.Float64() < 0.25 {
		sc.Stacks = 2
	}
	if rng.Float64() < 0.25 {
		sc.Gamma = 8
	}
	if rng.Float64() < 0.25 {
		sc.SegBytes = 2048
	}
	// Aggregate rate in (0.55, 1.0] of the single-direction budget
	// (half of peak), spread evenly over the ports.
	aggregate := 10240 * float64(sc.Stacks) * (0.55 + 0.45*rng.Float64())
	sc.PortGbps = math.Floor(aggregate / float64(sc.N))
	sc.Speedup = round2(1.05 + 0.25*rng.Float64())
	sc.Load = round2(0.10 + 0.85*rng.Float64())

	switch rng.Intn(4) {
	case 0:
		sc.Matrix = "uniform"
	case 1:
		sc.Matrix = "diagonal"
		sc.Shift = 1 + rng.Intn(sc.N-1)
	case 2:
		sc.Matrix = "hotspot"
		sc.HotFrac = round2(0.10 + 0.40*rng.Float64())
	case 3:
		sc.Matrix = "concentrated"
		sc.HotOutputs = 1 + rng.Intn(sc.N/4)
	}

	switch r := rng.Float64(); {
	case r < 0.40:
		sc.Sizes = "imix"
	case r < 0.55:
		sc.Sizes = "fixed"
		sc.FixedBytes = 64 // the paper's worst case
	case r < 0.80:
		sc.Sizes = "fixed"
		sc.FixedBytes = 1500
	default:
		sc.Sizes = "uniform"
	}
	sc.Arrival = "poisson"
	if rng.Float64() < 0.35 {
		sc.Arrival = "bursty"
	}

	switch r := rng.Float64(); {
	case r < 0.60:
		sc.Pad, sc.Bypass = true, true
	case r < 0.75:
		sc.Pad = true
	case r < 0.85:
		sc.Bypass = true
	}
	if rng.Float64() < 0.60 {
		sc.FlushNs = int64(100 + rng.Intn(900))
	}
	if sc.Pad && rng.Float64() < 0.50 {
		sc.PadNs = int64(500 + rng.Intn(1500))
	}
	sc.Refresh = rng.Float64() < 0.30
	if rng.Float64() < 0.25 {
		groups := core.Params{Banks: 64, Gamma: sc.Gamma}.Groups()
		align := int64(groups * (2048 / sc.SegBytes))
		sc.DynamicPages = align * int64(1+rng.Intn(2))
	}
	sc.SmallMemory = rng.Float64() < 0.12

	// Mostly short horizons; one in ten runs a long steady window so
	// the OQ throughput-gap oracle gets a clean measurement.
	if rng.Float64() < 0.10 {
		sc.HorizonUs = round1(60 + 30*rng.Float64())
		if sc.Sizes == "fixed" && sc.FixedBytes < 600 {
			sc.FixedBytes = 1500 // cap the event count on long runs
		}
	} else {
		sc.HorizonUs = round1(8 + 22*rng.Float64())
	}
	// Incast widening, drawn last so every earlier draw — and with it
	// every scenario generated before this knob existed — is unchanged
	// for a given seed: a quarter of the uniform cases become the
	// many→one pattern instead.
	if sc.Matrix == "uniform" && rng.Float64() < 0.25 {
		sc.Matrix = "incast"
	}
	// Realistic-workload widening, drawn after the incast knob under
	// the same draw-last rule: a fraction of cases swap the mux for a
	// flow-level generator. The mimicry invariants must hold under
	// heavy tails, bursts, and day-curves too — the SPS claim is not
	// Poisson-only.
	if rng.Float64() < 0.30 {
		sc.Workload = []string{"heavytail", "onoff", "diurnal"}[rng.Intn(3)]
	}
	return sc
}

// Mutated returns a copy of the scenario with a deliberate defect
// injected. FaultStarve also reshapes the workload into the regime
// where under-provisioning is observable: near-saturating admissible
// load, long steady window, and the minimal-feasible γ/S (where the
// write/read turnaround overhead is largest).
func (sc Scenario) Mutated(fault string) Scenario {
	sc.Fault = fault
	if fault == FaultStarve {
		sc.Stacks = 1
		sc.Gamma = 4
		sc.SegBytes = 1024
		sc.Speedup = 0.97
		sc.Load = 0.99
		sc.PortGbps = math.Floor(10230 / float64(sc.N))
		sc.Matrix = "uniform"
		sc.Shift, sc.HotFrac, sc.HotOutputs = 0, 0, 0
		sc.Sizes = "fixed"
		sc.FixedBytes = 1500
		sc.Arrival = "poisson"
		sc.Workload = ""
		// Force the pure write+read memory path: bypass would let the
		// tail SRAM route around the starved HBM and mask the defect.
		sc.Pad, sc.Bypass = false, false
		sc.SmallMemory = false
		sc.DynamicPages = 0
		// Long enough that the steady window dwarfs the stuck-frame
		// bias (so the gap oracle stays armed) and the backlog from the
		// service deficit overruns the tail-SRAM budget.
		if sc.HorizonUs < 300 {
			sc.HorizonUs = 300
		}
	}
	return sc
}

// Config builds the switch configuration. The OQ shadow is always
// enabled — it is the harness's golden model.
func (sc Scenario) Config() (hbmswitch.Config, error) {
	if sc.N < 1 || sc.Stacks < 1 || sc.PortGbps <= 0 {
		return hbmswitch.Config{}, fmt.Errorf("validate: bad scenario shape N=%d stacks=%d port=%g",
			sc.N, sc.Stacks, sc.PortGbps)
	}
	cfg := hbmswitch.Scaled(sc.Stacks, sim.Rate(sc.PortGbps)*sim.Gbps)
	cfg.PFI.N = sc.N
	cfg.PFI.Gamma = sc.Gamma
	cfg.PFI.SegBytes = sc.SegBytes
	cfg.Speedup = sc.Speedup
	cfg.Shadow = true
	cfg.Policy = core.Policy{PadFrames: sc.Pad, BypassHBM: sc.Bypass}
	cfg.FlushTimeout = sim.Time(sc.FlushNs) * sim.Nanosecond
	cfg.PadTimeout = sim.Time(sc.PadNs) * sim.Nanosecond
	cfg.EnableRefresh = sc.Refresh
	cfg.DynamicPages = sc.DynamicPages
	if sc.SmallMemory {
		// Shrink the stacks to ~8N frames per output region so the
		// ingress tail-drop threshold is reachable in microseconds.
		align := cfg.PFI.Groups() * cfg.PFI.SegmentsPerRow()
		rowsPerRegion := (8*sc.N + align - 1) / align
		rowsPerBank := int64(sc.N * rowsPerRegion)
		cfg.Geometry.StackCapacity = rowsPerBank *
			int64(cfg.Geometry.ChannelsPerStack) * int64(cfg.Geometry.BanksPerChannel) * int64(cfg.Geometry.RowBytes)
	}
	switch sc.Fault {
	case FaultNone, FaultStarve: // starve is encoded in the knobs above
	case FaultFixedGroup:
		cfg.SelfTest.FixedGroup = true
	default:
		return cfg, fmt.Errorf("validate: unknown fault %q", sc.Fault)
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// BuildMatrix builds the scenario's traffic matrix.
func (sc Scenario) BuildMatrix() (*traffic.Matrix, error) {
	switch sc.Matrix {
	case "uniform":
		return traffic.Uniform(sc.N, sc.Load), nil
	case "diagonal":
		return traffic.Diagonal(sc.N, sc.Load, ((sc.Shift%sc.N)+sc.N)%sc.N), nil
	case "hotspot":
		return traffic.Hotspot(sc.N, sc.Load, sc.HotFrac), nil
	case "concentrated":
		return traffic.Concentrated(sc.N, sc.Load, sc.HotOutputs), nil
	case "incast":
		return traffic.Incast(sc.N, sc.Load), nil
	}
	return nil, fmt.Errorf("validate: unknown matrix %q", sc.Matrix)
}

// SizeDist builds the scenario's packet-size distribution.
func (sc Scenario) SizeDist() (traffic.SizeDist, error) {
	switch sc.Sizes {
	case "imix":
		return traffic.IMIX(), nil
	case "fixed":
		if sc.FixedBytes < 1 {
			return nil, fmt.Errorf("validate: fixed sizes need fixed_bytes")
		}
		if sc.FixedBytes > packet.MaxSize {
			return nil, fmt.Errorf("validate: fixed_bytes %d above the %d B jumbo bound",
				sc.FixedBytes, packet.MaxSize)
		}
		return traffic.Fixed(sc.FixedBytes), nil
	case "uniform":
		return traffic.UniformSize{Min: 64, Max: 1500}, nil
	}
	return nil, fmt.Errorf("validate: unknown size distribution %q", sc.Sizes)
}

// ArrivalKind builds the scenario's arrival process.
func (sc Scenario) ArrivalKind() (traffic.ArrivalKind, error) {
	switch sc.Arrival {
	case "poisson":
		return traffic.Poisson, nil
	case "bursty":
		return traffic.Bursty, nil
	}
	return traffic.Poisson, fmt.Errorf("validate: unknown arrival process %q", sc.Arrival)
}

// Horizon returns the simulated duration.
func (sc Scenario) Horizon() sim.Time {
	return sim.Time(sc.HorizonUs * float64(sim.Microsecond))
}

// String is a compact one-line description for reports and logs.
func (sc Scenario) String() string {
	s := fmt.Sprintf("seed=%d N=%d stacks=%d γ=%d S=%d port=%gG x%.2f %s/%.2f %s %s %gus",
		sc.Seed, sc.N, sc.Stacks, sc.Gamma, sc.SegBytes, sc.PortGbps, sc.Speedup,
		sc.Matrix, sc.Load, sc.Sizes, sc.Arrival, sc.HorizonUs)
	if sc.Workload != "" {
		s += " workload=" + sc.Workload
	}
	if sc.Fault != "" {
		s += " fault=" + sc.Fault
	}
	return s
}

// WriteJSON serializes the scenario as an indented replayable case.
func (sc Scenario) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sc)
}

// ReadScenario parses a JSON scenario (a shrunk reproducer fixture or
// a hand-written case).
func ReadScenario(r io.Reader) (Scenario, error) {
	var sc Scenario
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return sc, fmt.Errorf("validate: bad scenario JSON: %w", err)
	}
	return sc, nil
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
func round1(v float64) float64 { return math.Round(v*10) / 10 }
