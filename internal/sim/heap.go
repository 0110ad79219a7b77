package sim

// Legacy binary min-heap queue (Algorithm == Heap), kept for
// differential testing against the timing wheel: both implementations
// order events by (at, seq), so runs are byte-identical at the same
// seed. The heap was the default through PR 5; see docs/perf.md for
// the measured difference. The heap needs no minimum cache: keys[0]
// is its earliest event, which Step compares against the arrival lane
// by (at, seq) just as it does the wheel's.

// eventKey orders the heap. Keys carry no pointers, so sift
// operations are plain memmoves with no GC write barriers. idx
// locates the payload in the arena.
type eventKey struct {
	at  Time
	seq uint64
	idx int32
}

// heapPush sifts a new key into the binary min-heap.
func (s *Scheduler) heapPush(at Time, idx int32) {
	s.keys = append(s.keys, eventKey{at: at, seq: s.seq, idx: idx})
	i := len(s.keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.heapLess(i, parent) {
			break
		}
		s.keys[i], s.keys[parent] = s.keys[parent], s.keys[i]
		i = parent
	}
}

// heapPop removes and returns the minimum key.
func (s *Scheduler) heapPop() eventKey {
	top := s.keys[0]
	last := len(s.keys) - 1
	s.keys[0] = s.keys[last]
	s.keys = s.keys[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && s.heapLess(l, smallest) {
			smallest = l
		}
		if r < last && s.heapLess(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s.keys[i], s.keys[smallest] = s.keys[smallest], s.keys[i]
		i = smallest
	}
	return top
}

func (s *Scheduler) heapLess(i, j int) bool {
	a, b := s.keys[i], s.keys[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
