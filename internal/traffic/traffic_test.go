package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"pbrouter/internal/sim"
)

func TestFixedSize(t *testing.T) {
	d := Fixed(64)
	rng := sim.NewRNG(1)
	for i := 0; i < 10; i++ {
		if d.Sample(rng) != 64 {
			t.Fatal("fixed size varied")
		}
	}
	if d.Mean() != 64 || d.Name() != "fixed64B" {
		t.Fatalf("mean %v name %q", d.Mean(), d.Name())
	}
}

func TestIMIXMeanAndSupport(t *testing.T) {
	d := IMIX()
	// Mean of 7:4:1 over 64/594/1500 = (7*64+4*594+1500)/12.
	want := (7.0*64 + 4*594 + 1500) / 12
	if math.Abs(d.Mean()-want) > 1e-9 {
		t.Fatalf("mean %v want %v", d.Mean(), want)
	}
	rng := sim.NewRNG(2)
	counts := map[int]int{}
	const n = 120000
	for i := 0; i < n; i++ {
		counts[d.Sample(rng)]++
	}
	if len(counts) != 3 {
		t.Fatalf("support %v", counts)
	}
	// Empirical mix close to 7:4:1.
	for size, wantFrac := range map[int]float64{64: 7.0 / 12, 594: 4.0 / 12, 1500: 1.0 / 12} {
		got := float64(counts[size]) / n
		if math.Abs(got-wantFrac) > 0.01 {
			t.Errorf("size %d frequency %v want %v", size, got, wantFrac)
		}
	}
}

func TestUniformSize(t *testing.T) {
	d := UniformSize{Min: 64, Max: 1500}
	rng := sim.NewRNG(3)
	var w sumStat
	for i := 0; i < 50000; i++ {
		v := d.Sample(rng)
		if v < 64 || v > 1500 {
			t.Fatalf("sample %d out of range", v)
		}
		w.add(float64(v))
	}
	if math.Abs(w.mean()-d.Mean()) > 10 {
		t.Fatalf("empirical mean %v want ~%v", w.mean(), d.Mean())
	}
}

type sumStat struct {
	n   int
	sum float64
}

func (s *sumStat) add(x float64) { s.n++; s.sum += x }
func (s *sumStat) mean() float64 { return s.sum / float64(s.n) }

func TestUniformMatrixAdmissible(t *testing.T) {
	m := Uniform(16, 1.0)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.Admissible(1e-9) {
		t.Fatal("uniform load-1 matrix must be admissible")
	}
	for i := 0; i < 16; i++ {
		if math.Abs(m.RowLoad(i)-1) > 1e-9 || math.Abs(m.ColLoad(i)-1) > 1e-9 {
			t.Fatalf("row/col load %v/%v", m.RowLoad(i), m.ColLoad(i))
		}
	}
	if math.Abs(m.Total()-16) > 1e-9 {
		t.Fatalf("total %v", m.Total())
	}
}

func TestDiagonalMatrix(t *testing.T) {
	m := Diagonal(8, 0.9, 3)
	if !m.Admissible(1e-9) {
		t.Fatal("diagonal inadmissible")
	}
	for i := 0; i < 8; i++ {
		if m.Rates[i][(i+3)%8] != 0.9 {
			t.Fatalf("diagonal entry missing at %d", i)
		}
		if math.Abs(m.RowLoad(i)-0.9) > 1e-9 {
			t.Fatalf("row %d load %v", i, m.RowLoad(i))
		}
	}
}

func TestPermutationMatrixProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		m := Permutation(16, 1.0, rng)
		return m.Admissible(1e-9) && math.Abs(m.Total()-16) < 1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHotspotCapsColumn(t *testing.T) {
	// With 16 inputs each sending 50% to output 0 at load 1, column 0
	// would be 8x oversubscribed; Hotspot must scale to admissibility.
	m := Hotspot(16, 1.0, 0.5)
	if !m.Admissible(1e-6) {
		t.Fatalf("hotspot inadmissible: col0=%v", m.ColLoad(0))
	}
	if m.ColLoad(0) < 0.99 {
		t.Fatalf("hotspot column underloaded: %v", m.ColLoad(0))
	}
	// Mild hotspot (col 0 at 16*0.5*0.05 + 0.5*0.95 = 0.875) needs no
	// scaling.
	m2 := Hotspot(16, 0.5, 0.05)
	if math.Abs(m2.RowLoad(3)-0.5) > 1e-9 {
		t.Fatalf("mild hotspot row load %v", m2.RowLoad(3))
	}
	if !m2.Admissible(1e-9) {
		t.Fatal("mild hotspot inadmissible")
	}
}

func TestMatrixScale(t *testing.T) {
	m := Uniform(4, 1.0).Scale(0.5)
	if math.Abs(m.Total()-2) > 1e-9 {
		t.Fatalf("scaled total %v", m.Total())
	}
}

func TestSourcePoissonLoad(t *testing.T) {
	// Long-run rate of a Poisson source must match the configured load.
	for _, load := range []float64{0.3, 0.7, 0.95} {
		rng := sim.NewRNG(42)
		var id uint64
		src := NewSource(SourceConfig{
			Input:    0,
			LineRate: 2560 * sim.Gbps,
			Kind:     Poisson,
			Row:      rowUniform(16, load),
			Sizes:    Fixed(1500),
			RNG:      rng,
			NextID:   func() uint64 { id++; return id },
		})
		horizon := 2 * sim.Millisecond
		pkts := src.GenerateWindow(horizon)
		var bits int64
		for _, p := range pkts {
			bits += int64(p.Size) * 8
		}
		got := float64(bits) / (2560e9 * horizon.Seconds())
		if math.Abs(got-load)/load > 0.03 {
			t.Errorf("load %.2f: measured %.4f", load, got)
		}
	}
}

func TestSourceBurstyLoad(t *testing.T) {
	rng := sim.NewRNG(7)
	var id uint64
	src := NewSource(SourceConfig{
		Input:    0,
		LineRate: 2560 * sim.Gbps,
		Kind:     Bursty,
		Row:      rowUniform(16, 0.6),
		Sizes:    Fixed(1500),
		RNG:      rng,
		NextID:   func() uint64 { id++; return id },
	})
	horizon := 5 * sim.Millisecond
	pkts := src.GenerateWindow(horizon)
	var bits int64
	for _, p := range pkts {
		bits += int64(p.Size) * 8
	}
	got := float64(bits) / (2560e9 * horizon.Seconds())
	if math.Abs(got-0.6) > 0.08 {
		t.Errorf("bursty load measured %.4f want ~0.6", got)
	}
}

func TestSourceArrivalsMonotoneAndSeqPerOutput(t *testing.T) {
	rng := sim.NewRNG(9)
	var id uint64
	src := NewSource(SourceConfig{
		Input:    2,
		LineRate: 100 * sim.Gbps,
		Kind:     Poisson,
		Row:      rowUniform(4, 0.8),
		Sizes:    IMIX(),
		RNG:      rng,
		NextID:   func() uint64 { id++; return id },
	})
	prev := sim.Time(-1)
	seqs := map[int]int64{}
	for i := 0; i < 5000; i++ {
		p, at := src.Next()
		if at < prev {
			t.Fatal("arrival times not monotone")
		}
		prev = at
		if p.Seq != seqs[int(p.Output)] {
			t.Fatalf("output %d: seq %d want %d", p.Output, p.Seq, seqs[int(p.Output)])
		}
		seqs[int(p.Output)]++
		if p.Input != 2 {
			t.Fatalf("input %d", p.Input)
		}
	}
}

func TestSourceRespectsLineRate(t *testing.T) {
	// Consecutive packet arrivals (last-byte times) must be separated
	// by at least the transmission time of the later packet.
	rng := sim.NewRNG(13)
	var id uint64
	src := NewSource(SourceConfig{
		Input:    0,
		LineRate: 40 * sim.Gbps,
		Kind:     Poisson,
		Row:      rowUniform(2, 1.0),
		Sizes:    Fixed(64),
		RNG:      rng,
		NextID:   func() uint64 { id++; return id },
	})
	tx := sim.TransferTime(64*8, 40*sim.Gbps)
	var prev sim.Time = -sim.Forever
	for i := 0; i < 10000; i++ {
		_, at := src.Next()
		if at-prev < tx && prev >= 0 {
			t.Fatalf("arrivals %v and %v closer than tx time %v", prev, at, tx)
		}
		prev = at
	}
}

func TestSourceDestinationsFollowMatrixRow(t *testing.T) {
	rng := sim.NewRNG(21)
	var id uint64
	row := []float64{0.5, 0.25, 0.125, 0.125}
	src := NewSource(SourceConfig{
		Input: 0, LineRate: sim.Tbps, Kind: Poisson,
		Row: row, Sizes: Fixed(500), RNG: rng,
		NextID: func() uint64 { id++; return id },
	})
	counts := make([]int, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		p, _ := src.Next()
		counts[p.Output]++
	}
	for j, want := range []float64{0.5, 0.25, 0.125, 0.125} {
		got := float64(counts[j]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("output %d frequency %v want %v", j, got, want)
		}
	}
}

func TestSourceOverloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for row sum > 1")
		}
	}()
	var id uint64
	NewSource(SourceConfig{
		Input: 0, LineRate: sim.Tbps, Kind: Poisson,
		Row: []float64{0.7, 0.7}, Sizes: Fixed(64), RNG: sim.NewRNG(1),
		NextID: func() uint64 { id++; return id },
	})
}

func TestSourceZeroLoadIdle(t *testing.T) {
	var id uint64
	src := NewSource(SourceConfig{
		Input: 0, LineRate: sim.Tbps, Kind: Poisson,
		Row: []float64{0, 0}, Sizes: Fixed(64), RNG: sim.NewRNG(1),
		NextID: func() uint64 { id++; return id },
	})
	p, at := src.Next()
	if p != nil || at != sim.Forever {
		t.Fatal("zero-load source emitted a packet")
	}
}

func TestFlowPoolStable(t *testing.T) {
	rng := sim.NewRNG(31)
	fp := NewFlowPool(4, rng)
	pick := sim.NewRNG(32)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		ft := fp.Pick(1, 2, pick)
		seen[ft.String()] = true
	}
	if len(seen) > 4 {
		t.Fatalf("pair produced %d distinct flows, want <= 4", len(seen))
	}
	// Different pairs get different flows (overwhelmingly likely).
	a := fp.Pick(1, 2, pick)
	b := fp.Pick(3, 4, pick)
	if a == b {
		t.Fatal("distinct pairs shared a flow tuple")
	}
}

func TestZipfFlowPoolSkews(t *testing.T) {
	rng := sim.NewRNG(41)
	fp := NewZipfFlowPool(64, 1.2, rng)
	pick := sim.NewRNG(42)
	counts := map[string]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		counts[fp.Pick(0, 1, pick).String()]++
	}
	// The heaviest flow should dominate: with Zipf 1.2 over 64 flows
	// the top flow carries ~21% of packets; uniform would give 1.6%.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	frac := float64(max) / n
	if frac < 0.10 {
		t.Fatalf("top flow carries %.3f of packets; Zipf skew missing", frac)
	}
	// Zero skew behaves uniformly.
	fpU := NewZipfFlowPool(64, 0, sim.NewRNG(43))
	countsU := map[string]int{}
	for i := 0; i < n; i++ {
		countsU[fpU.Pick(0, 1, pick).String()]++
	}
	maxU := 0
	for _, c := range countsU {
		if c > maxU {
			maxU = c
		}
	}
	if float64(maxU)/n > 0.05 {
		t.Fatalf("zero-skew pool not uniform: top %.3f", float64(maxU)/n)
	}
}

func rowUniform(n int, load float64) []float64 {
	row := make([]float64, n)
	for i := range row {
		row[i] = load / float64(n)
	}
	return row
}
