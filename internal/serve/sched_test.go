package serve

import (
	"bytes"
	"testing"

	"pbrouter/internal/hbmswitch"
	"pbrouter/internal/sim"
)

// simJSON runs one SimSpec end to end — the exact spssim -json / spsd
// "sim" job path — on the given event queue and returns the report's
// wire bytes.
func simJSON(t *testing.T, spec SimSpec, algo sim.Algorithm) []byte {
	t.Helper()
	spec.Normalize()
	if err := spec.Check(); err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config()
	cfg.Sched = algo
	sw, err := hbmswitch.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := spec.NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sw.Run(stream, spec.HorizonPs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSimSchedWheelHeapByteIdentical is the scheduler differential
// regression at the wire-format level: the timing-wheel and legacy
// binary-heap event queues must produce byte-identical spssim
// -json/spsd report output at the same seed, across multiple seeds
// and workload shapes.
func TestSimSchedWheelHeapByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		seed   uint64
		matrix string
		load   float64
	}{
		{1, "uniform", 0.9},
		{7, "diagonal", 0.6},
		{42, "hotspot", 0.95},
	} {
		spec := SimSpec{
			Load: tc.load, Matrix: tc.matrix, Seed: tc.seed,
			Stacks: 1, HorizonPs: 5 * sim.Microsecond,
		}
		wheel := simJSON(t, spec, sim.Wheel)
		heap := simJSON(t, spec, sim.Heap)
		if !bytes.Equal(wheel, heap) {
			t.Errorf("seed %d %s: wheel and heap reports differ (%d vs %d bytes)",
				tc.seed, tc.matrix, len(wheel), len(heap))
		}
		if len(wheel) == 0 {
			t.Errorf("seed %d %s: empty report", tc.seed, tc.matrix)
		}
	}
}
