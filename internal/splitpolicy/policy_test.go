package splitpolicy

import (
	"testing"

	"pbrouter/internal/optics"
	"pbrouter/internal/resilience"
	"pbrouter/internal/sim"
)

func TestNewPolicyNames(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == PolicyStatic {
			if p != nil {
				t.Fatalf("static policy is %T, want nil (the engine's static splitter)", p)
			}
			continue
		}
		if p.Name() != name {
			t.Fatalf("policy %q reports name %q", name, p.Name())
		}
	}
	if _, err := NewPolicy("roundrobin"); err == nil {
		t.Fatal("unknown policy must be rejected")
	}
	if PolicyNames()[0] != PolicyStatic {
		t.Fatal("static must lead PolicyNames — it is the sweep baseline")
	}
}

func TestQuotaEvenAndDeadAware(t *testing.T) {
	// 8 fibers over 4 live switches: exactly 2 each.
	q := quota(8, 4, nil, nil)
	for sw, n := range q {
		if n != 2 {
			t.Fatalf("switch %d quota %d, want 2", sw, n)
		}
	}
	// 8 fibers over 3 survivors: base 2, remainder 2 to the least
	// previously-loaded survivors.
	alive := []bool{true, false, true, true}
	load := []float64{0.9, 0, 0.2, 0.5}
	q = quota(8, 4, alive, load)
	if q[1] != 0 {
		t.Fatalf("dead switch got quota %d", q[1])
	}
	if q[0]+q[2]+q[3] != 8 {
		t.Fatalf("quota does not cover all fibers: %v", q)
	}
	if q[2] != 3 || q[3] != 3 || q[0] != 2 {
		t.Fatalf("remainder should favor the coolest survivors: %v", q)
	}
}

// sense for an adversarial pattern: first alpha fibers of every ribbon
// hot, rest idle.
func adversarialSense(n, f, alpha int) resilience.Sense {
	fl := make([][]float64, n)
	for r := range fl {
		fl[r] = make([]float64, f)
		for i := 0; i < alpha; i++ {
			fl[r][i] = 1.0
		}
	}
	return resilience.Sense{FiberLoad: fl}
}

func policySplitter(t *testing.T, n, f, h int) *optics.Splitter {
	t.Helper()
	s, err := optics.NewSplitter(n, f, h, optics.PseudoRandom, 7)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPoliciesRespectEvenness: every adaptive policy's table must pass
// Reassign's validation — under a healthy mask and under a degraded
// one.
func TestPoliciesRespectEvenness(t *testing.T) {
	sp := policySplitter(t, 4, 8, 4)
	for _, name := range []string{PolicyLeastLoaded, PolicyP2C, PolicyAdaptive} {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		sense := adversarialSense(4, 8, 2)
		rng := sim.NewRNG(3)
		assign := p.Rehash(sp, sense, rng)
		if assign == nil {
			t.Fatalf("%s: adaptive policy returned nil table", name)
		}
		if _, err := sp.Reassign(assign, nil); err != nil {
			t.Fatalf("%s: healthy table rejected: %v", name, err)
		}
		sense.Alive = []bool{true, true, false, true}
		assign = p.Rehash(sp, sense, rng)
		for r := range assign {
			for f, sw := range assign[r] {
				if sw == 2 {
					t.Fatalf("%s: fiber (%d,%d) placed on dead switch", name, r, f)
				}
			}
		}
		if _, err := sp.Reassign(assign, sense.Alive); err != nil {
			t.Fatalf("%s: degraded table rejected: %v", name, err)
		}
	}
}

// TestLeastLoadedSpreadsAdversarial: with alpha hot fibers per ribbon
// and quota alpha per switch, the greedy policy must land exactly one
// hot fiber per ribbon on each switch — a perfect split the paper's
// static hash only achieves by luck.
func TestLeastLoadedSpreadsAdversarial(t *testing.T) {
	sp := policySplitter(t, 4, 8, 4) // alpha = 2
	p, _ := NewPolicy(PolicyLeastLoaded)
	assign := p.Rehash(sp, adversarialSense(4, 8, 4), nil) // 4 hot fibers/ribbon, 4 switches
	for r := 0; r < 4; r++ {
		seen := make(map[int]int)
		for f := 0; f < 4; f++ { // the hot fibers
			seen[assign[r][f]]++
		}
		for sw, n := range seen {
			if n != 1 {
				t.Fatalf("ribbon %d: switch %d carries %d hot fibers, want 1 (assign %v)", r, sw, n, assign[r])
			}
		}
	}
}

// TestLeastLoadedDeterministicWithoutRNG: same sense, nil RNG, same
// table every time.
func TestLeastLoadedDeterministic(t *testing.T) {
	sp := policySplitter(t, 4, 8, 4)
	p, _ := NewPolicy(PolicyLeastLoaded)
	sense := adversarialSense(4, 8, 2)
	a := p.Rehash(sp, sense, nil)
	b := p.Rehash(sp, sense, nil)
	for r := range a {
		for f := range a[r] {
			if a[r][f] != b[r][f] {
				t.Fatalf("leastloaded not deterministic at (%d,%d)", r, f)
			}
		}
	}
}

// TestAdaptivePheromones: an over-loaded switch's weight must drop, an
// under-loaded one's rise, and both stay clamped to [tauMin, tauMax].
func TestAdaptivePheromones(t *testing.T) {
	a := newAdaptivePolicy()
	sense := resilience.Sense{SwitchLoad: []float64{0.9, 0.1, 0.5, 0.5}}
	a.Observe(sense)
	if a.weight(0) >= tauInit {
		t.Fatalf("hot switch weight %g did not evaporate", a.weight(0))
	}
	if a.weight(1) <= tauInit {
		t.Fatalf("cool switch weight %g did not reinforce", a.weight(1))
	}
	for i := 0; i < 200; i++ {
		a.Observe(sense)
	}
	if w := a.weight(0); w < tauMin {
		t.Fatalf("weight %g fell below floor %g", w, tauMin)
	}
	if w := a.weight(1); w > tauMax {
		t.Fatalf("weight %g rose above ceiling %g", w, tauMax)
	}
}
