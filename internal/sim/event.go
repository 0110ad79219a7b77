package sim

import "fmt"

// Handler receives intrusive events. Hot simulation loops implement
// it once per model and schedule (receiver, code, payload) triples
// with AtEvent/AfterEvent (or AtArrival, for a stream's next arrival)
// instead of allocating a fresh closure per event: the event payload
// lives in the scheduler's recycled arena or its arrival lane, so the
// steady state allocates nothing. code selects the action, a
// carries a small scalar argument (a port index, a packed
// coordinate), and p carries an optional pointer payload (storing a
// pointer in an interface does not allocate).
type Handler interface {
	HandleEvent(code, a int, p any)
}

// event is one scheduled callback — either a closure (fn) or an
// intrusive (h, code, a, p) dispatch — stored in the scheduler's
// index-stable arena. at and seq order the event; next links it into
// a timing-wheel slot list (arena index + 1, 0 = nil) so that slot
// storage is flat and the steady state allocates nothing.
type event struct {
	at   Time
	seq  uint64
	next int32
	code int32
	a    int
	fn   func()
	h    Handler
	p    any
}

// Algorithm selects the Scheduler's queue implementation.
type Algorithm int

const (
	// Wheel is the default: a hierarchical timing wheel (wheelLevels
	// levels of wheelSlots slots, one picosecond granularity at level
	// 0) with an unsorted overflow list for events beyond the wheel
	// span. Push and pop are O(1) amortized, slot storage is flat, and
	// all events at one tick drain in a single batched pass.
	Wheel Algorithm = iota
	// Heap is the legacy binary min-heap, kept for differential
	// testing: wheel and heap runs must produce byte-identical output
	// at the same seed (see TestWheelHeapIdentical*).
	Heap
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Wheel:
		return "wheel"
	case Heap:
		return "heap"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Scheduler is a deterministic discrete-event executor. The zero value
// is ready to use at time 0 and runs on the timing wheel; call
// SetAlgorithm(Heap) before scheduling anything to get the legacy
// binary heap. Events with equal times fire in the order they were
// scheduled (seq breaks ties) under both algorithms, which keeps runs
// byte-identical across implementations.
//
// Beside the queue sits a one-slot arrival lane (AtArrival) for a
// model's next stream arrival, which would otherwise enter the queue
// only to leave it again as the next event. The lane's event takes
// its seq from the same counter as every queued event, and Step runs
// whichever of the lane and the queue's earliest event comes first by
// (time, seq), so the lane changes no event's execution order.
type Scheduler struct {
	now     Time
	seq     uint64
	events  uint64
	pending int // queued events plus the lane's
	algo    Algorithm

	// Arrival lane: one intrusive event held outside the queue,
	// ordered by (laneAt, laneSeq) against the queue's minimum.
	laneBusy bool
	laneCode int32
	laneAt   Time
	laneSeq  uint64
	laneA    int
	laneH    Handler
	laneP    any

	// Cached queue minimum (wheel only): arena index + 1 of the
	// earliest queued event (0 = not cached) and its time. A push
	// earlier than it replaces it and a pop clears it; peeks fill it,
	// so the pop after a peek needs no second wheelMin walk.
	minRef int32
	minAt  Time

	// Wheel internals accounting (stats.go): slot cascades performed,
	// events moved by cascades, and events parked on the overflow
	// list. All increments are off the hot pop path — cascades and
	// overflow pushes are rare by construction.
	cascades      uint64
	cascadeEvents uint64
	overflowed    uint64

	// Arena: index-stable payload storage shared by both algorithms,
	// recycled through free so the steady state allocates nothing.
	arena []event
	free  []int32

	// Heap state (Algorithm == Heap).
	keys []eventKey

	// Wheel state (Algorithm == Wheel): per-level slot lists (arena
	// index + 1; 0 = empty) with occupancy bitmaps, plus the overflow
	// list for events beyond the wheel span.
	heads    [wheelLevels][wheelSlots]int32
	tails    [wheelLevels][wheelSlots]int32
	occ      [wheelLevels][wheelSlots / 64]uint64
	overflow []int32
}

// SetAlgorithm selects the queue implementation. It panics if events
// are pending: switching mid-run would lose them.
func (s *Scheduler) SetAlgorithm(a Algorithm) {
	if s.pending != 0 {
		panic("sim: SetAlgorithm with events pending")
	}
	s.algo = a
}

// Algorithm returns the queue implementation in use.
func (s *Scheduler) Algorithm() Algorithm { return s.algo }

// Now returns the current simulation time.
func (s *Scheduler) Now() Time { return s.now }

// Len returns the number of pending events, the arrival lane's
// included.
func (s *Scheduler) Len() int { return s.pending }

// Events returns the total number of events executed so far.
func (s *Scheduler) Events() uint64 { return s.events }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a causality bug in a model.
func (s *Scheduler) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.push(t, event{fn: fn})
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.At(s.now+d, fn)
}

// AtEvent schedules an intrusive event: at absolute time t the
// scheduler calls h.HandleEvent(code, a, p). Unlike At, nothing is
// allocated per event, which matters on per-packet paths.
func (s *Scheduler) AtEvent(t Time, h Handler, code, a int, p any) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.push(t, event{h: h, code: int32(code), a: a, p: p})
}

// AfterEvent schedules an intrusive event d after the current time.
func (s *Scheduler) AfterEvent(d Time, h Handler, code, a int, p any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.AtEvent(s.now+d, h, code, a, p)
}

// AtArrival schedules an intrusive event in the one-slot arrival lane:
// at absolute time t the scheduler calls h.HandleEvent(code, a, p),
// exactly as if AtEvent had been called here instead. It is meant for
// a model's stream pump, which keeps at most one arrival in flight and
// schedules the next from the arrival's own handler. It panics if the
// lane already holds an event or t is before now.
func (s *Scheduler) AtArrival(t Time, h Handler, code, a int, p any) {
	if s.laneBusy {
		panic(fmt.Sprintf("sim: arrival lane busy (at %v) scheduling at %v", s.laneAt, t))
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	s.laneBusy = true
	s.laneCode = int32(code)
	s.laneAt = t
	s.laneSeq = s.seq
	s.laneA = a
	s.laneH = h
	s.laneP = p
	s.pending++
}

// push stores the payload in a recycled arena slot and hands its index
// to the active queue implementation.
func (s *Scheduler) push(at Time, ev event) {
	s.seq++
	ev.at = at
	ev.seq = s.seq
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
		s.arena[idx] = ev
	} else {
		idx = int32(len(s.arena))
		s.arena = append(s.arena, ev)
	}
	s.pending++
	if s.algo == Heap {
		s.heapPush(at, idx)
		return
	}
	s.wheelPush(idx)
	if s.minRef != 0 && at < s.minAt {
		s.minRef, s.minAt = idx+1, at
	}
}

// NextTime returns the time of the earliest pending event.
func (s *Scheduler) NextTime() (Time, bool) {
	if s.laneBusy && s.laneFirst() {
		return s.laneAt, true
	}
	if s.pending == 0 {
		return 0, false
	}
	if s.algo == Heap {
		return s.keys[0].at, true
	}
	_, at := s.wheelPeek()
	return at, true
}

// Step executes the single earliest pending event. It reports whether
// an event was executed.
func (s *Scheduler) Step() bool {
	if s.laneBusy && s.laneFirst() {
		s.runLane()
		return true
	}
	if s.pending == 0 {
		return false
	}
	var idx int32
	if s.algo == Heap {
		idx = s.heapPop().idx
	} else {
		idx = s.wheelPop()
	}
	s.exec(idx)
	return true
}

// laneFirst reports whether the busy lane's event comes before every
// queued event by (time, seq).
func (s *Scheduler) laneFirst() bool {
	if s.pending == 1 {
		return true // the lane's is the only pending event
	}
	if s.algo == Heap {
		k := s.keys[0]
		return s.laneAt < k.at || s.laneAt == k.at && s.laneSeq < k.seq
	}
	m, at := s.wheelPeek()
	// The seq comparison loads the queued event only on a tie.
	return s.laneAt < at || s.laneAt == at && s.laneSeq < s.arena[m].seq
}

// runLane empties the arrival lane and runs its event. The wheel clock
// moves through wheelAdvance, as a queue pop would move it, so pending
// slots cascade exactly as they would have.
func (s *Scheduler) runLane() {
	h, code, a, p := s.laneH, s.laneCode, s.laneA, s.laneP
	s.laneBusy = false
	s.laneP = nil // drop the payload's pointer for the GC
	s.pending--
	if s.algo == Wheel {
		s.wheelAdvance(s.laneAt)
	} else {
		s.now = s.laneAt
	}
	s.events++
	h.HandleEvent(int(code), a, p)
}

// exec runs the arena event at idx, recycling its slot first so the
// handler can reschedule into it.
func (s *Scheduler) exec(idx int32) {
	ev := s.arena[idx]
	s.arena[idx] = event{} // drop the payload's pointers for the GC
	s.free = append(s.free, idx)
	s.pending--
	s.now = ev.at
	s.events++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.h.HandleEvent(int(ev.code), ev.a, ev.p)
	}
}

// RunUntil executes events in time order until the queue is empty or
// the next event is strictly after the horizon. The clock is left at
// the horizon (or at the last event if the queue drained first).
func (s *Scheduler) RunUntil(horizon Time) {
	for {
		at, ok := s.NextTime()
		if !ok || at > horizon {
			break
		}
		s.Step()
	}
	if s.now < horizon {
		if s.algo == Wheel {
			// Moving the wheel clock re-levels pending slots (no events
			// exist at or before the horizon, so this only cascades).
			s.wheelAdvance(horizon)
		} else {
			s.now = horizon
		}
	}
}

// Run executes all pending events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// Ticker invokes fn every period, starting at the given offset, until
// fn returns false or the scheduler drains. It is a convenience for
// clocked pipeline stages.
func (s *Scheduler) Ticker(offset, period Time, fn func(now Time) bool) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker period %v", period))
	}
	var tick func()
	tick = func() {
		if fn(s.now) {
			s.After(period, tick)
		}
	}
	s.After(offset, tick)
}
