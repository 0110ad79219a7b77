package sim

import "math"

// RNG is a small, fast, reproducible random number generator
// (SplitMix64). Every stochastic component in the repository takes an
// explicit *RNG seeded by the caller so that simulations and tests are
// repeatable bit-for-bit.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with the given value. Distinct
// seeds yield statistically independent streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent child generator. It is the preferred way
// to hand sub-components their own streams so that adding draws in one
// component does not perturb another.
func (r *RNG) Fork() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a uniform random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// ExpFloat64 returns an exponentially distributed float with mean 1.
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Pareto returns a bounded Pareto sample with the given shape and
// minimum. Used for heavy-tailed burst lengths.
func (r *RNG) Pareto(shape, xmin float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xmin / math.Pow(u, 1/shape)
}

// Pick returns an index in [0, len(weights)) with probability
// proportional to the weights. It panics on an empty or all-zero
// weight vector.
func (r *RNG) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	return r.PickTotal(weights, total)
}

// PickTotal is Pick with the weight sum supplied by the caller, who
// must have summed the weights in index order from zero exactly as
// Pick does; the draw is then bit-identical to Pick's. Callers drawing
// many times from a fixed weight vector use it to skip the sum.
func (r *RNG) PickTotal(weights []float64, total float64) int {
	if len(weights) == 0 || total <= 0 {
		panic("sim: Pick needs positive total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
