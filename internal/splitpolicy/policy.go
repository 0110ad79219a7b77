// Package splitpolicy is the adaptive splitter-policy subsystem: a
// pluggable online fiber→switch assignment layer over the passive
// splitter of §2. The paper's skew defense is a *static* pseudo-random
// assignment; this package turns that fixed design choice into a
// measured policy sweep. A policy senses per-switch occupancy (offered
// load, delivered bytes, and tail-SRAM high water from the hbmswitch
// reports of the previous epoch) plus fiber dimming and switch deaths
// from the resilience layer, and at each epoch boundary may re-hash
// the assignment — always through optics.Splitter.Reassign, which
// enforces the evenness invariant, and always under the validate
// harness's FIFO/conservation invariants on every transition. The
// policies implement resilience.Policy and run on resilience.Campaign,
// the repo's one epoch engine; this package keeps only the policies
// and the policy × workload sweep.
//
// The policy set mirrors internal/fleet/sched.go's strategy lineup:
// static (the paper's baseline — never rehashes, so the engine runs
// the plain splitter), leastloaded (greedy longest-processing-time),
// p2c (power-of-two-choices), and adaptive (pheromone weights
// reinforced on under-loaded switches, evaporated on over-loaded
// ones, with weighted-random placement so a recovering switch earns
// its share back gradually).
package splitpolicy

import (
	"fmt"
	"sort"
	"strings"

	"pbrouter/internal/optics"
	"pbrouter/internal/resilience"
	"pbrouter/internal/sim"
)

// Policy names, as accepted by -policies and SweepConfig.Policies.
const (
	PolicyStatic      = "static"
	PolicyLeastLoaded = "leastloaded"
	PolicyP2C         = "p2c"
	PolicyAdaptive    = "adaptive"
)

// PolicyNames lists every policy in canonical order (static first —
// it is the sweep baseline).
func PolicyNames() []string {
	return []string{PolicyStatic, PolicyLeastLoaded, PolicyP2C, PolicyAdaptive}
}

// NewPolicy builds the named policy. The static policy is the nil
// resilience.Policy: the engine then runs the paper's seeded splitter,
// degraded at the deployment seed under faults.
func NewPolicy(name string) (resilience.Policy, error) {
	switch name {
	case PolicyStatic:
		return nil, nil
	case PolicyLeastLoaded:
		return leastLoadedPolicy{}, nil
	case PolicyP2C:
		return p2cPolicy{}, nil
	case PolicyAdaptive:
		return newAdaptivePolicy(), nil
	default:
		return nil, fmt.Errorf("splitpolicy: unknown policy %q (%s)",
			name, strings.Join(PolicyNames(), "|"))
	}
}

// liveSwitches returns the indices of surviving switches; a nil mask
// means all alive.
func liveSwitches(h int, alive []bool) []int {
	live := make([]int, 0, h)
	for sw := 0; sw < h; sw++ {
		if alive == nil || alive[sw] {
			live = append(live, sw)
		}
	}
	return live
}

// quota returns the per-ribbon fiber quota for every switch: F/H' for
// each live switch, with the F mod H' remainder handed to the
// least-loaded survivors (ties by index) — the tightest split the
// Validate evenness invariant admits. Dead switches get zero.
func quota(f, h int, alive []bool, load []float64) []int {
	live := liveSwitches(h, alive)
	q := make([]int, h)
	base, extra := f/len(live), f%len(live)
	for _, sw := range live {
		q[sw] = base
	}
	if extra > 0 {
		// Deterministic: hand the remainder to the least previously-
		// loaded survivors, ties by index.
		order := append([]int(nil), live...)
		sort.SliceStable(order, func(a, b int) bool {
			var la, lb float64
			if load != nil {
				la, lb = load[order[a]], load[order[b]]
			}
			if la != lb {
				return la < lb
			}
			return order[a] < order[b]
		})
		for i := 0; i < extra; i++ {
			q[order[i]]++
		}
	}
	return q
}

// fiberRef orders the sensed fibers for placement.
type fiberRef struct {
	ribbon, fiber int
	load          float64
}

// sortedFibers lists every (ribbon, fiber) heaviest-first (ties by
// ribbon, then fiber — fully deterministic).
func sortedFibers(fiberLoad [][]float64) []fiberRef {
	var refs []fiberRef
	for r, row := range fiberLoad {
		for f, l := range row {
			refs = append(refs, fiberRef{ribbon: r, fiber: f, load: l})
		}
	}
	sort.SliceStable(refs, func(a, b int) bool {
		if refs[a].load != refs[b].load {
			return refs[a].load > refs[b].load
		}
		if refs[a].ribbon != refs[b].ribbon {
			return refs[a].ribbon < refs[b].ribbon
		}
		return refs[a].fiber < refs[b].fiber
	})
	return refs
}

// placer runs a constrained placement: each ribbon must hand each live
// switch exactly its quota of fibers, and every placement accumulates
// the fiber's load on the chosen switch.
type placer struct {
	h      int
	assign [][]int
	rem    [][]int // rem[ribbon][switch]: quota remaining
	acc    []float64
}

func newPlacer(sp *optics.Splitter, sense resilience.Sense) *placer {
	p := &placer{h: sp.H, acc: make([]float64, sp.H)}
	q := quota(sp.F, sp.H, sense.Alive, sense.SwitchLoad)
	p.assign = make([][]int, sp.N)
	p.rem = make([][]int, sp.N)
	for r := 0; r < sp.N; r++ {
		p.assign[r] = make([]int, sp.F)
		p.rem[r] = append([]int(nil), q...)
	}
	return p
}

// eligible lists the switches with quota remaining for the ribbon.
func (p *placer) eligible(ribbon int, scratch []int) []int {
	out := scratch[:0]
	for sw := 0; sw < p.h; sw++ {
		if p.rem[ribbon][sw] > 0 {
			out = append(out, sw)
		}
	}
	return out
}

// place assigns the fiber to the switch.
func (p *placer) place(ref fiberRef, sw int) {
	p.assign[ref.ribbon][ref.fiber] = sw
	p.rem[ref.ribbon][sw]--
	p.acc[sw] += ref.load
}

// leastLoadedPolicy is the greedy longest-processing-time heuristic:
// fibers heaviest-first, each to the eligible switch with the least
// accumulated load (ties by index). No RNG consumed — the assignment
// is a pure function of the sensed loads.
type leastLoadedPolicy struct{}

func (leastLoadedPolicy) Name() string             { return PolicyLeastLoaded }
func (leastLoadedPolicy) Observe(resilience.Sense) {}
func (leastLoadedPolicy) Rehash(sp *optics.Splitter, sense resilience.Sense, rng *sim.RNG) [][]int {
	p := newPlacer(sp, sense)
	scratch := make([]int, 0, sp.H)
	for _, ref := range sortedFibers(sense.FiberLoad) {
		best := -1
		for _, sw := range p.eligible(ref.ribbon, scratch) {
			if best < 0 || p.acc[sw] < p.acc[best] {
				best = sw
			}
		}
		p.place(ref, best)
	}
	return p.assign
}

// p2cPolicy is power-of-two-choices: fibers heaviest-first, sample two
// distinct eligible switches, place on the less loaded (ties by
// index). Two RNG draws per fiber buy most of leastloaded's balance
// without scanning every switch — Mitzenmacher's classic trade.
type p2cPolicy struct{}

func (p2cPolicy) Name() string             { return PolicyP2C }
func (p2cPolicy) Observe(resilience.Sense) {}
func (p2cPolicy) Rehash(sp *optics.Splitter, sense resilience.Sense, rng *sim.RNG) [][]int {
	p := newPlacer(sp, sense)
	scratch := make([]int, 0, sp.H)
	for _, ref := range sortedFibers(sense.FiberLoad) {
		el := p.eligible(ref.ribbon, scratch)
		pick := el[0]
		if len(el) > 1 {
			i := rng.Intn(len(el))
			j := rng.Intn(len(el) - 1)
			if j >= i {
				j++
			}
			a, b := el[i], el[j]
			pick = a
			if p.acc[b] < p.acc[a] || (p.acc[b] == p.acc[a] && b < a) {
				pick = b
			}
		}
		p.place(ref, pick)
	}
	return p.assign
}

// Pheromone bounds and dynamics, mirroring internal/fleet/sched.go's
// adaptive scheduler.
const (
	tauInit    = 1.0
	tauMin     = 0.05 // floor keeps a recovery trickle flowing
	tauMax     = 8.0
	tauGain    = 0.25 // reinforcement step on an under-loaded epoch
	tauOnError = 0.3  // multiplicative evaporation when over-loaded
)

// adaptivePolicy carries a pheromone weight per switch: reinforced
// when the switch's measured epoch load came in at or under the fleet
// mean, sharply evaporated when it ran hot, and placements are
// pheromone-weighted random (discounted by load already accumulated
// this rehash) so a recovering switch earns its share back gradually
// instead of being slammed back to full quota.
type adaptivePolicy struct {
	tau map[int]float64
}

func newAdaptivePolicy() *adaptivePolicy { return &adaptivePolicy{tau: map[int]float64{}} }

func (*adaptivePolicy) Name() string { return PolicyAdaptive }

func (a *adaptivePolicy) weight(sw int) float64 {
	if t, ok := a.tau[sw]; ok {
		return t
	}
	return tauInit
}

// Observe updates pheromones from the epoch's measured per-switch
// load: under the mean reinforces (scaled by how far under), over the
// mean evaporates.
func (a *adaptivePolicy) Observe(sense resilience.Sense) {
	if len(sense.SwitchLoad) == 0 {
		return
	}
	live := liveSwitches(len(sense.SwitchLoad), sense.Alive)
	if len(live) == 0 {
		return
	}
	mean := 0.0
	for _, sw := range live {
		mean += sense.SwitchLoad[sw]
	}
	mean /= float64(len(live))
	for _, sw := range live {
		t := a.weight(sw)
		if mean <= 0 {
			continue
		}
		ratio := sense.SwitchLoad[sw] / mean
		if ratio > 1 {
			t *= tauOnError + (1-tauOnError)/ratio // hotter → harsher
		} else {
			t *= 1 + tauGain*(1-ratio) // cooler → stronger reinforcement
		}
		if t < tauMin {
			t = tauMin
		}
		if t > tauMax {
			t = tauMax
		}
		a.tau[sw] = t
	}
}

func (a *adaptivePolicy) Rehash(sp *optics.Splitter, sense resilience.Sense, rng *sim.RNG) [][]int {
	p := newPlacer(sp, sense)
	scratch := make([]int, 0, sp.H)
	for _, ref := range sortedFibers(sense.FiberLoad) {
		el := p.eligible(ref.ribbon, scratch)
		pick := el[len(el)-1]
		total := 0.0
		for _, sw := range el {
			total += a.weight(sw) / (1 + p.acc[sw])
		}
		r := rng.Float64() * total
		for _, sw := range el {
			r -= a.weight(sw) / (1 + p.acc[sw])
			if r < 0 {
				pick = sw
				break
			}
		}
		p.place(ref, pick)
	}
	return p.assign
}
