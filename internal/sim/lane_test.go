package sim

import (
	"fmt"
	"strings"
	"testing"
)

// laneModel is a stream pump shaped like the switch's: one arrival in
// flight, each arrival's handler scheduling queue events around its
// pump of the next arrival. With lane set the pump uses AtArrival,
// otherwise AtEvent; the two must execute the same events in the same
// order. Random draws follow the execution order, so identical
// execution orders consume identical random streams.
type laneModel struct {
	s     *Scheduler
	rng   *RNG
	lane  bool
	log   []string
	arr   int // arrivals pumped so far
	maxA  int
	qid   int // queue events scheduled so far
	spawn int // queue events still allowed to spawn children
}

const (
	codeArrive = iota
	codeQueue
)

func (m *laneModel) HandleEvent(code, a int, p any) {
	if code == codeArrive {
		m.log = append(m.log, fmt.Sprintf("a%d@%d", a, m.s.Now()))
		// Queue events scheduled before the pump take smaller seqs than
		// the next arrival, those after it larger ones; zero and
		// one-picosecond delays tie with it or straddle it.
		m.scheduleQueue(m.rng.Intn(3))
		m.pump()
		m.scheduleQueue(m.rng.Intn(3))
		return
	}
	m.log = append(m.log, fmt.Sprintf("q%d@%d", a, m.s.Now()))
	if m.spawn > 0 && m.s.Now() < 1<<47 && m.rng.Intn(3) == 0 {
		m.spawn--
		m.scheduleQueue(1)
	}
}

// delay draws a queue-event delay: ties at zero, one picosecond,
// same-window and cross-level hops, and the odd one past the wheel
// span or at Forever.
func (m *laneModel) delay() Time {
	switch r := m.rng.Intn(20); {
	case r < 4:
		return Time(r % 2)
	case r < 12:
		return Time(m.rng.Intn(300))
	case r < 18:
		return Time(m.rng.Intn(1 << 20))
	case r < 19:
		return 1<<48 + Time(m.rng.Intn(1000))
	default:
		return Forever - m.s.Now()
	}
}

func (m *laneModel) scheduleQueue(n int) {
	for i := 0; i < n; i++ {
		m.s.AfterEvent(m.delay(), m, codeQueue, m.qid, nil)
		m.qid++
	}
}

// pump schedules the next arrival 0–2 ps or up to ~1000 ps later. The
// last one lands past the wheel span, among the overflow events, so
// running it from the lane moves the wheel clock across the span.
func (m *laneModel) pump() {
	if m.arr == m.maxA {
		return
	}
	var gap Time
	if m.arr == m.maxA-1 {
		gap = 1<<48 + 500
	} else if m.rng.Intn(4) == 0 {
		gap = Time(m.rng.Intn(3))
	} else {
		gap = Time(m.rng.Intn(1000))
	}
	at := m.s.Now() + gap
	if m.lane {
		m.s.AtArrival(at, m, codeArrive, m.arr, nil)
	} else {
		m.s.AtEvent(at, m, codeArrive, m.arr, nil)
	}
	m.arr++
}

// nextArrival returns the pending arrival's time under either mode
// (executed arena slots are zeroed, so only a pending arrival matches).
func (m *laneModel) nextArrival() (Time, bool) {
	if m.lane {
		return m.s.laneAt, m.s.laneBusy
	}
	for _, ev := range m.s.arena {
		if ev.code == codeArrive && ev.h == Handler(m) {
			return ev.at, true
		}
	}
	return 0, false
}

// runLaneModel drives one model to completion: RunUntil horizons one
// picosecond before, at and past the pending arrival, then Run. The
// log records every event and the clock and pending count after every
// horizon, so a difference in either shows.
func runLaneModel(t *testing.T, algo Algorithm, lane bool, seed uint64) []string {
	var s Scheduler
	s.SetAlgorithm(algo)
	m := &laneModel{s: &s, rng: NewRNG(seed), lane: lane, maxA: 300, spawn: 200}
	m.scheduleQueue(5)
	m.pump()
	ctl := NewRNG(seed ^ 0x9e3779b97f4a7c15)
	for i := 0; i < 60; i++ {
		at, ok := m.nextArrival()
		if !ok {
			break
		}
		h := at + Time(ctl.Intn(3)) - 1
		if h < s.Now() {
			h = s.Now()
		}
		s.RunUntil(h)
		m.log = append(m.log, fmt.Sprintf("until %d: now %d len %d", h, s.Now(), s.Len()))
		if lane && h < at && !s.laneBusy {
			t.Fatalf("RunUntil(%d) ran the lane's arrival at %d", h, at)
		}
	}
	s.Run()
	if s.Len() != 0 || s.laneBusy {
		t.Fatalf("Run left %d pending (lane busy %v)", s.Len(), s.laneBusy)
	}
	m.log = append(m.log, fmt.Sprintf("end: now %d events %d", s.Now(), s.Events()))
	return m.log
}

// TestArrivalLaneMatchesAtEvent is the lane's differential test: one
// arrival chain driven through AtArrival and the same chain through
// AtEvent must run the same events at the same times in the same
// order, under both queue algorithms, across ties, RunUntil horizons
// around the lane, overflow events and pushes earlier than the cached
// minimum. The reference is AtEvent on the heap.
func TestArrivalLaneMatchesAtEvent(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		ref := runLaneModel(t, Heap, false, seed)
		for _, tc := range []struct {
			algo Algorithm
			lane bool
		}{{Wheel, false}, {Heap, true}, {Wheel, true}} {
			got := runLaneModel(t, tc.algo, tc.lane, seed)
			if len(got) != len(ref) {
				t.Fatalf("seed %d %v lane=%v: %d log lines, reference %d", seed, tc.algo, tc.lane, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("seed %d %v lane=%v: line %d is %q, reference %q\ncontext: %s",
						seed, tc.algo, tc.lane, i, got[i], ref[i], strings.Join(ref[max(0, i-5):i], " "))
				}
			}
		}
	}
}

// TestArrivalLaneTieOrder pins seq ordering between the lane and the
// queue at one picosecond: a queue event scheduled before the arrival
// runs before it, one scheduled after runs after it.
func TestArrivalLaneTieOrder(t *testing.T) {
	for _, algo := range []Algorithm{Wheel, Heap} {
		var s Scheduler
		s.SetAlgorithm(algo)
		var got []int
		rec := recorder(func(code, a int) { got = append(got, a) })
		s.AtEvent(7, rec, 0, 1, nil)
		s.AtArrival(7, rec, 0, 2, nil)
		s.AtEvent(7, rec, 0, 3, nil)
		s.AtEvent(6, rec, 0, 0, nil)
		s.Run()
		if fmt.Sprint(got) != "[0 1 2 3]" {
			t.Fatalf("%v: ran %v, want [0 1 2 3]", algo, got)
		}
	}
}

// TestQueueMinCacheEarlierPush pins the minimum cache: after a peek
// caches a far event, a push that lands earlier must replace it, and
// one at the same time (a later seq) must not.
func TestQueueMinCacheEarlierPush(t *testing.T) {
	for _, algo := range []Algorithm{Wheel, Heap} {
		var s Scheduler
		s.SetAlgorithm(algo)
		var got []int
		rec := recorder(func(code, a int) { got = append(got, a) })
		s.AtEvent(1<<30, rec, 0, 3, nil)
		s.AtArrival(1<<31, rec, 0, 5, nil)
		if at, ok := s.NextTime(); !ok || at != 1<<30 {
			t.Fatalf("%v: NextTime = %d, %v; want %d", algo, at, ok, Time(1<<30))
		}
		s.AtEvent(1<<30, rec, 0, 4, nil) // ties the cached event, later seq
		s.AtEvent(1<<20, rec, 0, 1, nil) // earlier than the cached event
		s.AtEvent(1<<20+1, rec, 0, 2, nil)
		if at, _ := s.NextTime(); at != 1<<20 {
			t.Fatalf("%v: NextTime = %d after an earlier push, want %d", algo, at, Time(1<<20))
		}
		s.Run()
		if fmt.Sprint(got) != "[1 2 3 4 5]" {
			t.Fatalf("%v: ran %v, want [1 2 3 4 5]", algo, got)
		}
	}
}

// TestArrivalLanePanics covers the lane's guards: a second arrival
// while one is pending, an arrival in the past, and SetAlgorithm with
// only the lane pending.
func TestArrivalLanePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	rec := recorder(func(code, a int) {})
	mustPanic("lane busy", func() {
		var s Scheduler
		s.AtArrival(10, rec, 0, 0, nil)
		s.AtArrival(20, rec, 0, 0, nil)
	})
	mustPanic("lane in the past", func() {
		var s Scheduler
		s.AtEvent(10, rec, 0, 0, nil)
		s.Run()
		s.AtArrival(9, rec, 0, 0, nil)
	})
	mustPanic("SetAlgorithm with the lane pending", func() {
		var s Scheduler
		s.AtArrival(10, rec, 0, 0, nil)
		if s.Len() != 1 {
			t.Errorf("Len = %d with only the lane pending, want 1", s.Len())
		}
		s.SetAlgorithm(Heap)
	})
}

// recorder adapts a function to Handler.
type recorder func(code, a int)

func (r recorder) HandleEvent(code, a int, p any) { r(code, a) }
