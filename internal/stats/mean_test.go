package stats

import (
	"math"
	"testing"

	"pbrouter/internal/sim"
)

// Mean replaces a Histogram wherever only the mean is read, so its
// MeanTime must equal Histogram.MeanTime bit for bit on every sample
// sequence, the empty one included.
func TestMeanMatchesHistogramMeanTime(t *testing.T) {
	s := uint64(0x2545f4914f6cdd1d)
	rnd := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%(1<<53)) / (1 << 53)
	}
	var random []sim.Time
	for i := 0; i < 50000; i++ {
		// Picosecond durations over ~13 decades, so the float sum
		// rounds as it does in a long run.
		random = append(random, sim.Time(math.Exp(rnd()*30)))
	}
	// Past 2^53 ps a float64 sum absorbs unit samples; an exact
	// integer sum would not, and its mean would differ.
	absorbed := []sim.Time{1 << 53}
	for i := 0; i < 1000; i++ {
		absorbed = append(absorbed, 1)
	}
	seqs := map[string][]sim.Time{
		"empty":      nil,
		"one":        {12345},
		"under-min":  {0, 1, 999},
		"mixed":      {0, 500, 1000, 1001, 7 * sim.Microsecond, 3 * sim.Millisecond},
		"random":     random,
		"huge":       {sim.Forever / 3, sim.Forever / 3, 1, sim.Forever / 7},
		"repeated-1": {1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		"absorbed":   absorbed,
	}
	for name, seq := range seqs {
		var m Mean
		h := NewLatencyHistogram()
		for _, d := range seq {
			m.AddTime(d)
			h.AddTime(d)
		}
		if got, want := m.MeanTime(), h.MeanTime(); got != want {
			t.Errorf("%s: MeanTime %d, histogram %d", name, got, want)
		}
	}
}
