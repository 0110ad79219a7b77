package sim

import (
	"fmt"
	"testing"
)

// TestWheelHeapDifferentialRandom is the scheduler's core differential
// test: a randomized workload — including handler-driven reschedules —
// must execute in the identical order on the wheel and on the legacy
// heap.
func TestWheelHeapDifferentialRandom(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		run := func(algo Algorithm) []string {
			var s Scheduler
			s.SetAlgorithm(algo)
			rng := NewRNG(seed)
			var got []string
			var reschedule func(tag int) func()
			reschedule = func(tag int) func() {
				return func() {
					got = append(got, fmt.Sprintf("%d@%d", tag, s.Now()))
					if tag < 200 {
						// Mix of near (same tick / same 256-window) and far
						// (cross-level) hops, plus occasional zero delays.
						d := Time(rng.Intn(1 << uint(4+tag%12)))
						s.After(d, reschedule(tag+7))
					}
				}
			}
			for i := 0; i < 64; i++ {
				s.At(Time(rng.Intn(1<<20)), reschedule(i))
			}
			s.Run()
			return got
		}
		wheel, heap := run(Wheel), run(Heap)
		if len(wheel) != len(heap) {
			t.Fatalf("seed %d: wheel ran %d events, heap %d", seed, len(wheel), len(heap))
		}
		for i := range wheel {
			if wheel[i] != heap[i] {
				t.Fatalf("seed %d: event %d differs: wheel %s, heap %s", seed, i, wheel[i], heap[i])
			}
		}
	}
}

// TestWheelCrossWindowCascade pins the cascade path: events placed in
// higher-level slots must drain in (time, seq) order as the clock
// crosses 256^k window boundaries.
func TestWheelCrossWindowCascade(t *testing.T) {
	var s Scheduler
	// One event per level: same low digits, increasing high digits, so
	// each lives one level up from the previous. Scheduled in reverse
	// time order to exercise out-of-order insertion, plus same-time
	// pairs to check seq ordering across a cascade.
	times := []Time{
		5,                    // level 0
		5 + 1<<8,             // level 1
		5 + 1<<16,            // level 2
		5 + 1<<24,            // level 3
		5 + 1<<32,            // level 4
		5 + 1<<40,            // level 5
		5 + 1<<40, 5 + 1<<16, // duplicates: seq must order them after the originals
	}
	var got []Time
	order := make([]int, 0, len(times))
	for i := len(times) - 1; i >= 0; i-- {
		i := i
		s.At(times[i], func() {
			got = append(got, s.Now())
			order = append(order, i)
		})
	}
	s.Run()
	want := []Time{5, 5 + 1<<8, 5 + 1<<16, 5 + 1<<16, 5 + 1<<24, 5 + 1<<32, 5 + 1<<40, 5 + 1<<40}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %d, want %d (order %v)", i, got[i], want[i], order)
		}
	}
	// Same-time pairs: the earlier-scheduled one fires first. times[7]
	// duplicates times[2] and was scheduled before it in the reverse
	// loop, so it must fire first.
	if order[2] != 7 || order[3] != 2 {
		t.Fatalf("same-time pair at 5+2^16 fired as %d,%d; want 7,2 (scheduling order)", order[2], order[3])
	}
}

// TestWheelOverflowFarFuture pins the calendar-queue fallback: events
// beyond the 2^48 ps wheel span (e.g. Forever sentinels) must park in
// the overflow list and still fire, in order, after the wheel drains.
func TestWheelOverflowFarFuture(t *testing.T) {
	var s Scheduler
	var got []Time
	record := func() { got = append(got, s.Now()) }
	s.At(Forever, record)    // far beyond the span
	s.At(1<<50, record)      // beyond the span, nearer
	s.At(100, record)        // in the wheel
	s.At((1<<48)+12, record) // just past the span from t=0
	if len(s.overflow) != 3 {
		t.Fatalf("overflow holds %d events, want 3", len(s.overflow))
	}
	s.Run()
	want := []Time{100, (1 << 48) + 12, 1 << 50, Forever}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %d, want %d", i, got[i], want[i])
		}
	}
	if s.Now() != Forever {
		t.Fatalf("clock at %d, want Forever", s.Now())
	}
}

// TestWheelOverflowSameTimeSeqOrder checks that overflow reinsertion
// preserves scheduling order for same-time events.
func TestWheelOverflowSameTimeSeqOrder(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Forever, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("overflow events fired as %v, want scheduling order", got)
		}
	}
}

// TestWheelRunUntilClampThenSchedule is the regression for the
// stale-level bug: RunUntil must move the wheel clock to the horizon
// via a cascade (not a bare assignment), or events already in the
// wheel get stranded at levels computed against the old clock.
func TestWheelRunUntilClampThenSchedule(t *testing.T) {
	var s Scheduler
	var got []Time
	record := func() { got = append(got, s.Now()) }
	// Pending events on both sides of a far horizon, at several levels.
	s.At(50, record)
	s.At(1<<20+3, record)
	s.At(1<<36+9, record)
	// Clamp the clock deep into the wheel's range with events pending.
	s.RunUntil(1 << 30)
	if s.Now() != 1<<30 {
		t.Fatalf("clock at %d after RunUntil, want %d", s.Now(), Time(1<<30))
	}
	if len(got) != 2 {
		t.Fatalf("ran %d events before horizon, want 2", len(got))
	}
	// Schedule into the gap between the horizon and the far event.
	s.At(1<<30+5, record)
	s.After(1, record)
	s.Run()
	want := []Time{50, 1<<20 + 3, 1<<30 + 1, 1<<30 + 5, 1<<36 + 9}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %d, want %d", i, got[i], want[i])
		}
	}
}

// TestWheelRunUntilRepeatedClamps advances the clock across many
// horizons with no events in between — the lockstep-epoch driving
// pattern — and checks nothing is lost or reordered.
func TestWheelRunUntilRepeatedClamps(t *testing.T) {
	var s Scheduler
	var got []Time
	for i := 1; i <= 20; i++ {
		tt := Time(i * i * i * 997)
		s.At(tt, func() { got = append(got, s.Now()) })
	}
	end := Time(20 * 20 * 20 * 997)
	for e := Time(1); e <= 64; e++ {
		s.RunUntil(end / 64 * e)
	}
	s.Run()
	if len(got) != 20 {
		t.Fatalf("ran %d events, want 20", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
}

// TestSetAlgorithm covers the config-switch surface: string names and
// the pending-events guard.
func TestSetAlgorithm(t *testing.T) {
	if Wheel.String() != "wheel" || Heap.String() != "heap" {
		t.Fatalf("algorithm names: %v, %v", Wheel, Heap)
	}
	var s Scheduler
	s.SetAlgorithm(Heap)
	if s.Algorithm() != Heap {
		t.Fatal("SetAlgorithm(Heap) did not take")
	}
	s.At(5, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("SetAlgorithm with pending events did not panic")
		}
	}()
	s.SetAlgorithm(Wheel)
}

// TestSchedulerZeroAlloc is the alloc budget for the event core: on a
// warm scheduler, intrusive push + pop, through the queue and through
// the arrival lane, must not allocate at all, under both queue
// implementations.
func TestSchedulerZeroAlloc(t *testing.T) {
	for _, algo := range []Algorithm{Wheel, Heap} {
		var s Scheduler
		s.SetAlgorithm(algo)
		h := &countingHandler{}
		// Warm up: grow the arena, free list, and heap keys.
		for i := 0; i < 64; i++ {
			s.AtEvent(Time(i), h, 1, i, nil)
		}
		s.Run()
		per := testing.AllocsPerRun(1000, func() {
			s.AfterEvent(3, h, 1, 0, nil)
			s.AtArrival(s.Now()+3, h, 3, 2, nil)
			s.AfterEvent(900, h, 2, 1, nil)
			s.Run()
		})
		if per != 0 {
			t.Errorf("%v: %g allocs per push+pop cycle, want 0", algo, per)
		}
	}
}

type countingHandler struct{ n int }

func (c *countingHandler) HandleEvent(code, a int, p any) { c.n++ }
