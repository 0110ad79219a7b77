package sim

// SchedStats is a snapshot of the scheduler's event-core internals —
// the counters PR 6's timing wheel kept to itself. Everything here is
// a pure function of the executed event sequence, so two runs of the
// same seed report identical stats regardless of wall clock or worker
// placement; telemetry probes built on them stay deterministic.
type SchedStats struct {
	// Events is the total number of events executed.
	Events uint64
	// Pending is the number of events currently scheduled, the
	// arrival lane's included.
	Pending int
	// Cascades counts (level, slot) lists redistributed to lower
	// wheel levels as the clock advanced; CascadeEvents counts the
	// events those cascades moved. Always zero under the heap.
	Cascades      uint64
	CascadeEvents uint64
	// Overflowed counts events pushed past the wheel span (2^48 ps)
	// onto the calendar overflow list, including re-pushes when the
	// list refills the wheel. Always zero under the heap.
	Overflowed uint64
}

// Stats snapshots the scheduler's internals.
func (s *Scheduler) Stats() SchedStats {
	return SchedStats{
		Events:        s.events,
		Pending:       s.pending,
		Cascades:      s.cascades,
		CascadeEvents: s.cascadeEvents,
		Overflowed:    s.overflowed,
	}
}
