package baseline

import (
	"fmt"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/stats"
	"pbrouter/internal/traffic"
)

// MeshSim is the event-level (queueing) version of the §2.1 Design 2
// baseline: a k×k grid of switches with one external port per node,
// XY routing, store-and-forward at packet granularity, and FIFO
// output links of one port's capacity. It measures what the
// flow-level Mesh model bounds: delivered throughput, per-hop
// queueing latency, and link utilization, including the collapse to
// ~2/k on the worst-case admissible pattern.
type MeshSim struct {
	K        int
	LinkRate sim.Rate

	sched *sim.Scheduler
	// busyUntil per directed link, indexed like Mesh.linkIndex, plus
	// one ejection port per node at the end.
	busyUntil []sim.Time
	linkBits  []int64

	flow   *Mesh // reuse the routing geometry
	stream traffic.Stream

	offered     stats.Counter
	delivered   stats.Counter
	deliveredSt stats.Counter
	byHorizon   stats.Counter
	latency     *stats.Histogram
	hops        stats.Welford
	warmup      sim.Time
	horizon     sim.Time
}

// NewMeshSim builds a k×k event-level mesh.
func NewMeshSim(k int, linkRate sim.Rate) (*MeshSim, error) {
	m, err := NewMesh(k)
	if err != nil {
		return nil, err
	}
	return &MeshSim{
		K:         k,
		LinkRate:  linkRate,
		sched:     &sim.Scheduler{},
		busyUntil: make([]sim.Time, k*k*4+k*k),
		linkBits:  make([]int64, k*k*4+k*k),
		flow:      m,
		latency:   stats.NewLatencyHistogram(),
	}, nil
}

// Intrusive event codes (sim.Handler): the mesh schedules one event
// per packet hop, so closure-free dispatch matters here.
const (
	evMeshArrive = iota // p: *packet.Packet — injection; pump the next one
	evMeshHop           // p: packet; a: packed (hops<<16 | r<<8 | c)
	evMeshEject         // p: packet; a: hop count; ejection time is Now()
)

// HandleEvent dispatches the mesh's intrusive events (sim.Handler).
func (ms *MeshSim) HandleEvent(code, a int, p any) {
	switch code {
	case evMeshArrive:
		pkt := p.(*packet.Packet)
		ms.offered.Add(pkt.Size)
		in := int(pkt.Input)
		ms.hop(pkt, in/ms.K, in%ms.K, 0)
		ms.pump()
	case evMeshHop:
		ms.hop(p.(*packet.Packet), a>>8&0xff, a&0xff, a>>16)
	case evMeshEject:
		ms.eject(p.(*packet.Packet), a)
	}
}

// ejectIndex returns the ejection-port slot for a node.
func (ms *MeshSim) ejectIndex(node int) int { return ms.K*ms.K*4 + node }

// nextLink returns the directed link a packet at (r,c) takes toward
// (dr,dc) under XY routing, along with the next node. done is true at
// the destination (take the ejection port).
func (ms *MeshSim) nextLink(r, c, dr, dc int) (link, nr, nc int, done bool) {
	switch {
	case c < dc:
		return ms.flow.linkIndex(r, c, 0), r, c + 1, false
	case c > dc:
		return ms.flow.linkIndex(r, c-1, 1), r, c - 1, false
	case r < dr:
		return ms.flow.linkIndex(r, c, 2), r + 1, c, false
	case r > dr:
		return ms.flow.linkIndex(r-1, c, 3), r - 1, c, false
	default:
		return ms.ejectIndex(r*ms.K + c), r, c, true
	}
}

// hop forwards one packet from its current node; it reschedules
// itself until the packet ejects.
func (ms *MeshSim) hop(p *packet.Packet, r, c, hops int) {
	now := ms.sched.Now()
	out := int(p.Output)
	dr, dc := out/ms.K, out%ms.K
	link, nr, nc, done := ms.nextLink(r, c, dr, dc)
	start := now
	if ms.busyUntil[link] > start {
		start = ms.busyUntil[link]
	}
	tx := sim.TransferTime(int64(p.Size)*8, ms.LinkRate)
	end := start + tx
	ms.busyUntil[link] = end
	if end <= ms.horizon {
		// Count only transfers inside the measurement window so link
		// utilization is a true fraction (the post-horizon drain would
		// otherwise inflate it).
		ms.linkBits[link] += int64(p.Size) * 8
	}
	if done {
		ms.sched.AtEvent(end, ms, evMeshEject, hops, p)
		return
	}
	ms.sched.AtEvent(end, ms, evMeshHop, (hops+1)<<16|nr<<8|nc, p)
}

// eject finalizes a packet's departure at the current time.
func (ms *MeshSim) eject(p *packet.Packet, hops int) {
	end := ms.sched.Now()
	p.Depart = end
	ms.delivered.Add(p.Size)
	if end > ms.warmup && end <= ms.horizon {
		ms.deliveredSt.Add(p.Size)
	}
	if end <= ms.horizon {
		ms.byHorizon.Add(p.Size)
	}
	ms.latency.AddTime(p.Latency())
	ms.hops.Add(float64(hops))
}

// pump schedules the next arrival in the scheduler's arrival lane;
// evMeshArrive injects it and pumps again, keeping one arrival in
// flight.
func (ms *MeshSim) pump() {
	p, at := ms.stream.Next()
	if p == nil || at > ms.horizon {
		return
	}
	ms.sched.AtArrival(at, ms, evMeshArrive, 0, p)
}

// MeshReport summarizes an event-level mesh run.
type MeshReport struct {
	OfferedLoad float64 // fraction of aggregate external capacity
	Throughput  float64 // steady-state delivered fraction
	LatencyP50  sim.Time
	LatencyP99  sim.Time
	MeanHops    float64
	MaxLinkUtil float64
	// DeliveredFrac is the fraction of offered packets that made it out
	// by the horizon; the remainder was stranded in internal queues
	// (the mesh never drops, it just falls behind).
	DeliveredFrac  float64
	OfferedPackets int64
	DeliveredAtEnd int64
	// Byte-level accounting for cross-architecture comparisons:
	// OfferedBytes−ByHorizonBytes is the backlog stranded inside the
	// mesh when the horizon strikes.
	OfferedBytes   int64
	ByHorizonBytes int64
}

// Run injects traffic from the matrix until the horizon and lets
// in-flight packets drain. Queues are unbounded (the mesh's problem
// is throughput collapse, not loss).
func (ms *MeshSim) Run(tm *traffic.Matrix, sizes traffic.SizeDist, horizon sim.Time, seed uint64) (*MeshReport, error) {
	n := ms.K * ms.K
	if tm.N != n {
		return nil, fmt.Errorf("baseline: matrix %d ports, mesh has %d nodes", tm.N, n)
	}
	srcs := traffic.UniformSources(tm, ms.LinkRate, traffic.Poisson, sizes, sim.NewRNG(seed))
	return ms.RunStream(traffic.NewMux(srcs), horizon)
}

// RunStream is Run for an externally built packet stream (any
// workload generator): packets are injected at their stream arrival
// times until the horizon, then in-flight packets drain. Packet ports
// must lie in [0, K²).
func (ms *MeshSim) RunStream(stream traffic.Stream, horizon sim.Time) (*MeshReport, error) {
	n := ms.K * ms.K
	ms.horizon = horizon
	ms.warmup = horizon / 3
	ms.stream = stream
	ms.pump()
	ms.sched.Run()

	steadyCap := float64(ms.LinkRate) * float64(n) * (horizon - ms.warmup).Seconds()
	rep := &MeshReport{
		LatencyP50:     ms.latency.PercentileTime(0.50),
		LatencyP99:     ms.latency.PercentileTime(0.99),
		MeanHops:       ms.hops.Mean(),
		OfferedPackets: ms.offered.Packets,
		DeliveredAtEnd: ms.delivered.Packets,
		OfferedBytes:   ms.offered.Bytes,
		ByHorizonBytes: ms.byHorizon.Bytes,
	}
	if steadyCap > 0 {
		rep.Throughput = float64(ms.deliveredSt.Bits()) / steadyCap
		rep.OfferedLoad = float64(ms.offered.Bits()) / (float64(ms.LinkRate) * float64(n) * horizon.Seconds())
	}
	if ms.offered.Packets > 0 {
		rep.DeliveredFrac = float64(ms.byHorizon.Packets) / float64(ms.offered.Packets)
	}
	// Link utilization over the injection window.
	for link, bits := range ms.linkBits {
		if link >= ms.K*ms.K*4 {
			break // ejection ports are not internal links
		}
		u := float64(bits) / sim.BitsIn(horizon, ms.LinkRate)
		if u > rep.MaxLinkUtil {
			rep.MaxLinkUtil = u
		}
	}
	return rep, nil
}
