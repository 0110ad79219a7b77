// Package resilience is the fault-injection and degraded-mode layer of
// the SPS reproduction: a deterministic, simulated-time fault engine
// that fails and repairs individual components on a seeded schedule,
// plus the availability campaign that measures the paper's graceful-
// degradation claim — because the H HBM switches are fully independent
// and the splitter is just an assignment table, losing a switch, an
// HBM channel, a bank group, or part of a fiber's wavelengths costs
// proportional capacity, never correctness.
//
// The component fault model (Fault):
//
//   - SwitchFailure: one whole HBM switch dies. Degraded mode: the
//     splitter re-hashes its fibers across the survivors
//     (optics.Splitter.Degrade); survivor ports become oversubscribed
//     and the clamped excess is the capacity loss.
//   - ChannelFailure: one HBM channel of one switch dies. Degraded
//     mode: the staggered interleaver re-stripes frames over the T'
//     surviving channels (hbm.FrameEngine.SetDeadChannels), dilating
//     the frame time by ~T/T'.
//   - GroupFailure: one bank interleaving group of one switch dies.
//     Degraded mode: placement cycles over the surviving groups under
//     the remapped n mod (L'/γ) residency invariant (core.GroupMap),
//     shrinking buffer capacity by L'/L.
//   - FiberDimming: part of one fiber's W wavelengths fail; the flows
//     riding that fiber shrink to the surviving fraction.
//
// Campaign is the repo's one epoch engine. Time is sliced into epochs
// at fault/repair boundaries (Epochs) or into equal rehash epochs, and
// an optional splitter Policy (internal/splitpolicy) may re-hash the
// fiber→switch assignment at each epoch start. Each epoch is an
// independent steady-state measurement of the degraded configuration: every (epoch, surviving switch) pair simulates with a
// seed derived only from its index (the parallel.Seed convention), so
// a campaign's reports are byte-identical for every -j. In-flight
// state does not carry across an epoch boundary — each epoch warms up,
// measures its steady window, and drains — which is the right model
// for availability curves, where epochs are long against packet times.
//
// internal/validate attaches its structural probe per epoch
// (validate.Observer): conservation, FIFO order, and the (remapped)
// bank-residency invariant must hold on every epoch, degraded or not,
// and the OQ-mimicry oracle runs on healthy epochs.
package resilience

import (
	"fmt"
	"sort"

	"pbrouter/internal/sim"
)

// Kind enumerates the component fault classes.
type Kind int

// Component fault kinds.
const (
	// SwitchFailure kills one whole HBM switch.
	SwitchFailure Kind = iota
	// ChannelFailure kills one HBM channel of one switch.
	ChannelFailure
	// GroupFailure kills one bank interleaving group of one switch.
	GroupFailure
	// FiberDimming dims one fiber of one ribbon to a fraction of its
	// wavelengths.
	FiberDimming
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case SwitchFailure:
		return "switch"
	case ChannelFailure:
		return "channel"
	case GroupFailure:
		return "group"
	case FiberDimming:
		return "fiber"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one component failure interval [Fail, Repair). A Repair at
// or beyond the horizon means the component never recovers within the
// campaign.
type Fault struct {
	Kind Kind
	// Switch is the affected HBM switch (SwitchFailure, ChannelFailure,
	// GroupFailure).
	Switch int
	// Index is the channel or group index within the switch.
	Index int
	// Ribbon and Fiber locate a dimmed fiber (FiberDimming).
	Ribbon int
	Fiber  int
	// Scale is the surviving capacity fraction of a dimmed fiber, in
	// (0, 1).
	Scale float64
	// Fail and Repair bound the outage in simulated time.
	Fail   sim.Time
	Repair sim.Time
}

// Active reports whether the fault is in effect at time t.
func (f Fault) Active(t sim.Time) bool { return f.Fail <= t && t < f.Repair }

// Component describes the failed component for event logs.
func (f Fault) Component() string {
	switch f.Kind {
	case SwitchFailure:
		return fmt.Sprintf("switch %d", f.Switch)
	case ChannelFailure:
		return fmt.Sprintf("switch %d channel %d", f.Switch, f.Index)
	case GroupFailure:
		return fmt.Sprintf("switch %d group %d", f.Switch, f.Index)
	case FiberDimming:
		return fmt.Sprintf("ribbon %d fiber %d to %.2fx", f.Ribbon, f.Fiber, f.Scale)
	default:
		return fmt.Sprintf("unknown fault kind %d", int(f.Kind))
	}
}

// FiberDim is one dimmed fiber in a State, with the combined surviving
// fraction of overlapping dimming faults.
type FiberDim struct {
	Ribbon, Fiber int
	Scale         float64
}

// State is the component health of the package at one instant: which
// switches survive, which channels and groups are dead inside each
// switch, and which fibers are dimmed. All slices are sorted so a
// State is canonical for a given fault set.
type State struct {
	// Alive[h] reports switch h healthy-or-degraded (false = dead).
	Alive []bool
	// DeadChannels[h] and DeadGroups[h] list failed components inside
	// surviving switch h, ascending.
	DeadChannels [][]int
	DeadGroups   [][]int
	// Dimmed lists dimmed fibers in (ribbon, fiber) order.
	Dimmed []FiberDim
}

// Healthy reports whether no fault is in effect.
func (s *State) Healthy() bool {
	for _, a := range s.Alive {
		if !a {
			return false
		}
	}
	for h := range s.DeadChannels {
		if len(s.DeadChannels[h]) > 0 || len(s.DeadGroups[h]) > 0 {
			return false
		}
	}
	return len(s.Dimmed) == 0
}

// SwitchHealthy reports whether switch h is alive with no internal
// component failures.
func (s *State) SwitchHealthy(h int) bool {
	return s.Alive[h] && len(s.DeadChannels[h]) == 0 && len(s.DeadGroups[h]) == 0
}

// AliveCount returns the number of surviving switches.
func (s *State) AliveCount() int {
	n := 0
	for _, a := range s.Alive {
		if a {
			n++
		}
	}
	return n
}

// Counts summarizes the failure load for telemetry: failed switches,
// dead channels, dead groups, dimmed fibers.
func (s *State) Counts() (switches, channels, groups, fibers int) {
	for h, a := range s.Alive {
		if !a {
			switches++
			continue
		}
		channels += len(s.DeadChannels[h])
		groups += len(s.DeadGroups[h])
	}
	return switches, channels, groups, len(s.Dimmed)
}

// StateAt evaluates the fault set at time t for a package of H
// switches. Channel/group faults inside a dead switch are subsumed by
// the switch failure and dropped; overlapping dimming faults on one
// fiber multiply.
func StateAt(faults []Fault, t sim.Time, h int) State {
	st := State{
		Alive:        make([]bool, h),
		DeadChannels: make([][]int, h),
		DeadGroups:   make([][]int, h),
	}
	for i := range st.Alive {
		st.Alive[i] = true
	}
	for _, f := range faults {
		if f.Kind == SwitchFailure && f.Active(t) && f.Switch >= 0 && f.Switch < h {
			st.Alive[f.Switch] = false
		}
	}
	dim := map[[2]int]float64{}
	for _, f := range faults {
		if !f.Active(t) {
			continue
		}
		switch f.Kind {
		case ChannelFailure:
			if f.Switch >= 0 && f.Switch < h && st.Alive[f.Switch] {
				st.DeadChannels[f.Switch] = insertSorted(st.DeadChannels[f.Switch], f.Index)
			}
		case GroupFailure:
			if f.Switch >= 0 && f.Switch < h && st.Alive[f.Switch] {
				st.DeadGroups[f.Switch] = insertSorted(st.DeadGroups[f.Switch], f.Index)
			}
		case FiberDimming:
			key := [2]int{f.Ribbon, f.Fiber}
			if cur, ok := dim[key]; ok {
				dim[key] = cur * f.Scale
			} else {
				dim[key] = f.Scale
			}
		}
	}
	keys := make([][2]int, 0, len(dim))
	for key := range dim {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		st.Dimmed = append(st.Dimmed, FiberDim{Ribbon: key[0], Fiber: key[1], Scale: dim[key]})
	}
	return st
}

// insertSorted inserts v into an ascending slice, dropping duplicates.
func insertSorted(s []int, v int) []int {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
