package baseline

import (
	"fmt"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/stats"
)

// IQSwitch is a classic input-queued crossbar switch with virtual
// output queues and the iSLIP scheduling algorithm — the architecture
// class a centralized electronic fabric (§2.1 Design 1) would use at
// scale. It exists as a contrast to the paper's shared-memory HBM
// switch: iSLIP needs a scheduler iteration every cell time (hopeless
// at 2.56 Tb/s ports — a 64 B cell time is 200 ps), achieves 100%
// only for uniform traffic, and degrades on skewed patterns, whereas
// PFI has no scheduler at all.
//
// The model is cell-based: packets are segmented into fixed cells,
// one cell per (granted) input per cell slot crosses the crossbar,
// and packets reassemble at the outputs.
type IQSwitch struct {
	n         int
	rate      sim.Rate
	cellBytes int
	cellTime  sim.Time
	iters     int

	voq       [][][]*cell // [input][output] FIFO of cells
	voqLens   []int       // total cells queued per input (for stats)
	grantPtr  []int       // iSLIP grant pointers (per output)
	acceptPtr []int       // iSLIP accept pointers (per input)

	outBusy  []sim.Time
	received map[uint64]int // packet id -> bytes arrived at output

	Delivered stats.Counter
	Latency   *stats.Histogram
	slots     int64
	granted   int64
	maxVOQ    int
}

type cell struct {
	p    *packet.Packet
	last bool
	len  int
}

// NewIQSwitch builds an N×N iSLIP switch with the given cell size and
// scheduling iterations per slot (1 = basic iSLIP).
func NewIQSwitch(n int, rate sim.Rate, cellBytes, iters int) (*IQSwitch, error) {
	if n <= 0 || cellBytes <= 0 || iters <= 0 {
		return nil, fmt.Errorf("baseline: bad IQ switch parameters")
	}
	s := &IQSwitch{
		n:         n,
		rate:      rate,
		cellBytes: cellBytes,
		cellTime:  sim.TransferTime(int64(cellBytes)*8, rate),
		iters:     iters,
		grantPtr:  make([]int, n),
		acceptPtr: make([]int, n),
		outBusy:   make([]sim.Time, n),
		received:  make(map[uint64]int),
		Latency:   stats.NewLatencyHistogram(),
		voqLens:   make([]int, n),
	}
	s.voq = make([][][]*cell, n)
	for i := range s.voq {
		s.voq[i] = make([][]*cell, n)
	}
	return s, nil
}

// CellTime returns the slot duration.
func (s *IQSwitch) CellTime() sim.Time { return s.cellTime }

// Enqueue segments a packet into cells in its VOQ. Call in arrival
// order; scheduling happens in Run.
func (s *IQSwitch) Enqueue(p *packet.Packet) {
	remaining := int(p.Size)
	for remaining > 0 {
		l := s.cellBytes
		if remaining < l {
			l = remaining
		}
		remaining -= l
		s.voq[p.Input][p.Output] = append(s.voq[p.Input][p.Output],
			&cell{p: p, last: remaining == 0, len: l})
	}
	s.voqLens[p.Input]++
}

// schedule runs the iSLIP request-grant-accept iterations for one
// slot and returns the matched (input -> output) pairs.
func (s *IQSwitch) schedule() map[int]int {
	matchIn := make(map[int]int) // input -> output
	inFree := make([]bool, s.n)
	outFree := make([]bool, s.n)
	for i := range inFree {
		inFree[i] = true
		outFree[i] = true
	}
	for it := 0; it < s.iters; it++ {
		// Grant phase: each free output grants the requesting input
		// nearest its grant pointer. An input may collect several
		// grants.
		grants := make([][]int, s.n) // input -> outputs granting it
		for out := 0; out < s.n; out++ {
			if !outFree[out] {
				continue
			}
			for k := 0; k < s.n; k++ {
				in := (s.grantPtr[out] + k) % s.n
				if inFree[in] && len(s.voq[in][out]) > 0 {
					grants[in] = append(grants[in], out)
					break
				}
			}
		}
		// Accept phase: each input accepts the granting output nearest
		// its accept pointer.
		accepted := false
		for in := 0; in < s.n; in++ {
			if !inFree[in] || len(grants[in]) == 0 {
				continue
			}
			best, bestDist := -1, s.n+1
			for _, out := range grants[in] {
				d := (out - s.acceptPtr[in] + s.n) % s.n
				if d < bestDist {
					best, bestDist = out, d
				}
			}
			matchIn[in] = best
			inFree[in] = false
			outFree[best] = false
			accepted = true
			// Pointer updates only on first-iteration accepts
			// (standard iSLIP desynchronization rule).
			if it == 0 {
				s.grantPtr[best] = (in + 1) % s.n
				s.acceptPtr[in] = (best + 1) % s.n
			}
		}
		if !accepted {
			break
		}
	}
	return matchIn
}

// Run executes cell slots until the horizon while feeding arrivals
// from the stream, then drains all VOQs. It returns the steady-state
// delivered fraction of aggregate capacity.
func (s *IQSwitch) Run(next func() (*packet.Packet, sim.Time), horizon sim.Time) float64 {
	warmup := horizon / 3
	var deliveredSteady int64
	pending, pendAt := next()

	empty := func() bool {
		for i := range s.voq {
			for j := range s.voq[i] {
				if len(s.voq[i][j]) > 0 {
					return false
				}
			}
		}
		return true
	}

	for now := sim.Time(0); ; now += s.cellTime {
		// Admit arrivals up to this slot.
		for pending != nil && pendAt <= now && pendAt <= horizon {
			s.Enqueue(pending)
			pending, pendAt = next()
		}
		if now > horizon && empty() {
			break
		}
		s.slots++
		for in, out := range s.schedule() {
			q := s.voq[in][out]
			c := q[0]
			s.voq[in][out] = q[1:]
			s.granted++
			// The cell crosses the fabric this slot and is serialized
			// onto the output line.
			start := now + s.cellTime
			if s.outBusy[out] > start {
				start = s.outBusy[out]
			}
			end := start + sim.TransferTime(int64(c.len)*8, s.rate)
			s.outBusy[out] = end
			if c.last {
				c.p.Depart = end
				s.Delivered.Add(c.p.Size)
				s.Latency.AddTime(c.p.Latency())
				if end > warmup && end <= horizon {
					deliveredSteady += int64(c.p.Size)
				}
			}
		}
		if q := s.queuedCells(); q > s.maxVOQ {
			s.maxVOQ = q
		}
	}
	cap := float64(s.rate) * float64(s.n) * (horizon - warmup).Seconds()
	if cap <= 0 {
		return 0
	}
	return float64(deliveredSteady*8) / cap
}

func (s *IQSwitch) queuedCells() int {
	total := 0
	for i := range s.voq {
		for j := range s.voq[i] {
			total += len(s.voq[i][j])
		}
	}
	return total
}

// MaxVOQCells returns the high-water total VOQ occupancy in cells.
func (s *IQSwitch) MaxVOQCells() int { return s.maxVOQ }

// SchedulerDecisionsPerSecond returns the scheduler iteration rate a
// hardware implementation would need at this port rate — the §2.1
// Challenge 1 argument made quantitative (a 64 B cell at 2.56 Tb/s
// leaves 200 ps per full request-grant-accept round).
func SchedulerDecisionsPerSecond(rate sim.Rate, cellBytes int) float64 {
	return float64(rate) / (float64(cellBytes) * 8)
}
