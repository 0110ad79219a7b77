package sim

import "math/bits"

// Hierarchical timing wheel (the Scheduler's default queue).
//
// Absolute event times are split into wheelLevels base-wheelSlots
// digits; an event lives at the highest level whose digit differs
// from the clock's (level 0 when every digit matches, i.e. the event
// is inside the current 256 ps window). Each (level, slot) is a FIFO
// list threaded through the event arena's next links, so a level-0
// slot holds every event of one exact picosecond in scheduling order
// — the whole tick drains in one batched pass with no per-event
// comparisons or sifts.
//
// When the clock advances into a new slot at some level, that slot's
// list cascades down to lower levels. Cascades and direct insertions
// both append, and a cascade always happens before any direct insert
// into the same window can occur, so same-time events stay in seq
// order — the property that keeps wheel runs byte-identical to heap
// runs.
//
// Events beyond the wheel span (2^48 ps ≈ 281 s of absolute
// simulated time, e.g. sim.Forever sentinels) go to an unsorted
// overflow list that is refilled into the wheel only when the wheel
// itself drains — a calendar-queue fallback that is never on the hot
// path.
//
// The scheduler keeps two things beside the wheel. The arrival lane
// (AtArrival) holds a stream's next arrival, which never enters a
// slot; running it moves the clock through wheelAdvance exactly as a
// pop at its time would, so slots cascade as they would have. And a
// one-entry cache of the earliest queued event (wheelPeek) lets the
// pop that follows a peek — RunUntil's NextTime then Step, or Step
// comparing the queue against the lane — skip a second wheelMin walk.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits // 256
	wheelLevels = 6
	wheelMask   = wheelSlots - 1
)

// digit extracts the base-256 digit of t at the given level.
func digit(t Time, level int) int {
	return int(uint64(t)>>(wheelBits*level)) & wheelMask
}

// levelOf returns the wheel level for an event at time t relative to
// the clock now, or wheelLevels if t is beyond the wheel span.
func levelOf(t, now Time) int {
	diff := uint64(t) ^ uint64(now)
	if diff == 0 {
		return 0
	}
	l := (63 - bits.LeadingZeros64(diff)) / wheelBits
	return l
}

// wheelPush links arena event idx into its slot (or the overflow
// list). The event's time is read from the arena.
func (s *Scheduler) wheelPush(idx int32) {
	t := s.arena[idx].at
	l := levelOf(t, s.now)
	if l >= wheelLevels {
		s.overflow = append(s.overflow, idx)
		s.overflowed++
		return
	}
	s.slotAppend(l, digit(t, l), idx)
}

// slotAppend appends idx to the (level, slot) FIFO list.
func (s *Scheduler) slotAppend(level, slot int, idx int32) {
	s.arena[idx].next = 0
	if tail := s.tails[level][slot]; tail != 0 {
		s.arena[tail-1].next = idx + 1
	} else {
		s.heads[level][slot] = idx + 1
		s.occ[level][slot>>6] |= 1 << (slot & 63)
	}
	s.tails[level][slot] = idx + 1
}

// slotTake detaches and returns the whole (level, slot) list head.
func (s *Scheduler) slotTake(level, slot int) int32 {
	head := s.heads[level][slot]
	s.heads[level][slot] = 0
	s.tails[level][slot] = 0
	s.occ[level][slot>>6] &^= 1 << (slot & 63)
	return head
}

// scanOcc returns the first occupied slot >= from at the given level,
// or -1 if none.
func (s *Scheduler) scanOcc(level, from int) int {
	if from >= wheelSlots {
		return -1
	}
	w := from >> 6
	b := s.occ[level][w] >> (from & 63) << (from & 63)
	for {
		if b != 0 {
			return w<<6 + bits.TrailingZeros64(b)
		}
		w++
		if w >= wheelSlots/64 {
			return -1
		}
		b = s.occ[level][w]
	}
}

// wheelMin locates the earliest pending event without mutating the
// wheel: its arena index, its time, and whether one exists. Cascades
// happen later, in wheelAdvance, so peeking never moves the clock —
// events may still be scheduled anywhere at or after Now.
func (s *Scheduler) wheelMin() (int32, Time, bool) {
	// Level 0 first: slots at or after the clock's digit inside the
	// current window. A hit is exact — each level-0 slot is one tick.
	if slot := s.scanOcc(0, digit(s.now, 0)); slot >= 0 {
		return s.heads[0][slot] - 1, s.arena[s.heads[0][slot]-1].at, true
	}
	// Higher levels hold coarser windows: the first occupied slot past
	// the clock's digit is the nearest window, and the earliest event
	// within it is found by walking its list (first node with the
	// minimum time wins ties, because lists are in seq order).
	for l := 1; l < wheelLevels; l++ {
		slot := s.scanOcc(l, digit(s.now, l)+1)
		if slot < 0 {
			continue
		}
		best := int32(-1)
		bestAt := Time(0)
		for n := s.heads[l][slot]; n != 0; n = s.arena[n-1].next {
			if at := s.arena[n-1].at; best < 0 || at < bestAt {
				best, bestAt = n-1, at
			}
		}
		return best, bestAt, true
	}
	// Wheel empty: fall back to the overflow list (cold path).
	best := int32(-1)
	bestAt := Time(0)
	for _, idx := range s.overflow {
		if at := s.arena[idx].at; best < 0 || at < bestAt {
			best, bestAt = idx, at
		}
	}
	return best, bestAt, best >= 0
}

// wheelPeek returns the earliest queued event's arena index and time
// from the minimum cache, filling the cache on a miss: from the head
// of the current tick's slot when it is occupied (a batched same-tick
// drain needs no scan), else by a wheelMin walk. The queue must not be
// empty.
func (s *Scheduler) wheelPeek() (int32, Time) {
	if s.minRef == 0 {
		if slot0 := digit(s.now, 0); s.occ[0][slot0>>6]&(1<<(slot0&63)) != 0 {
			s.minRef, s.minAt = s.heads[0][slot0], s.now
		} else {
			idx, at, _ := s.wheelMin()
			s.minRef, s.minAt = idx+1, at
		}
	}
	return s.minRef - 1, s.minAt
}

// wheelPop removes and returns the earliest queued event's arena
// index. Advancing the wheel clock to the event's time leaves it at
// the head of its level-0 slot (same-time events sit there in seq
// order), so the pop needs no second search. The queue must not be
// empty.
func (s *Scheduler) wheelPop() int32 {
	idx, at := s.wheelPeek()
	s.wheelAdvance(at)
	if head := s.slotPopHead(0, digit(at, 0)); head != idx {
		panic("sim: wheel advance lost the minimum event")
	}
	s.minRef = 0
	return idx
}

// slotPopHead unlinks and returns the head of a slot list.
func (s *Scheduler) slotPopHead(level, slot int) int32 {
	head := s.heads[level][slot] - 1
	next := s.arena[head].next
	s.heads[level][slot] = next
	if next == 0 {
		s.tails[level][slot] = 0
		s.occ[level][slot>>6] &^= 1 << (slot & 63)
	}
	return head
}

// wheelAdvance moves the wheel clock to at, cascading every slot the
// clock enters from the highest changed level downward, and refilling
// from the overflow list when the clock crosses into its range.
// Cascading walks each list in order and re-appends, preserving seq
// order per destination slot.
func (s *Scheduler) wheelAdvance(at Time) {
	if at == s.now {
		return
	}
	top := levelOf(at, s.now)
	s.now = at
	if top >= wheelLevels {
		// The clock crossed the wheel span: everything still pending
		// lives in overflow. Reinsert what now fits (walk order is seq
		// order, so per-slot FIFOs stay sorted by seq).
		pend := s.overflow
		s.overflow = s.overflow[:0]
		for _, idx := range pend {
			s.wheelPush(idx)
		}
		return
	}
	for l := top; l >= 1; l-- {
		slot := digit(at, l)
		if s.occ[l][slot>>6]&(1<<(slot&63)) == 0 {
			continue
		}
		s.cascades++
		for n := s.slotTake(l, slot); n != 0; {
			next := s.arena[n-1].next
			s.wheelPush(n - 1)
			n = next
			s.cascadeEvents++
		}
	}
}
