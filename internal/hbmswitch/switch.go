package hbmswitch

import (
	"fmt"

	"pbrouter/internal/baseline"
	"pbrouter/internal/core"
	"pbrouter/internal/corestats"
	"pbrouter/internal/hbm"
	"pbrouter/internal/optics"
	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/sram"
	"pbrouter/internal/stats"
	"pbrouter/internal/telemetry"
	"pbrouter/internal/traffic"
)

// frameToken links a completed frame into the shared write FIFO. A
// bypassed frame's token goes stale and is skipped by the writer.
// Tokens are recycled through the switch's freelist.
type frameToken struct {
	frame *packet.Frame
	stale bool
}

// newToken takes a token from the freelist (or allocates one).
func (s *Switch) newToken(f *packet.Frame) *frameToken {
	if n := len(s.tokFree); n > 0 {
		tok := s.tokFree[n-1]
		s.tokFree = s.tokFree[:n-1]
		tok.frame, tok.stale = f, false
		return tok
	}
	return &frameToken{frame: f}
}

// freeToken recycles a token that left both FIFOs.
func (s *Switch) freeToken(tok *frameToken) {
	tok.frame = nil
	s.tokFree = append(s.tokFree, tok)
}

// freePacket returns a dead packet to the traffic stream's pool, when
// it has one. Called only after the packet's last observable use
// (departure accounting or drop), per the Probe no-retention contract.
func (s *Switch) freePacket(p *packet.Packet) {
	if s.recycle != nil {
		s.recycle.Recycle(p)
	}
}

// Intrusive event codes (sim.Handler). The per-packet and per-batch
// paths schedule (receiver, code, payload) events instead of
// closures, so steady-state simulation allocates nothing per event.
const (
	evInject      = iota // p: *packet.Packet — arrival; pump the next one
	evFlushCheck         // a: input port; the deadline is the fire time
	evBatchAtTail        // a: input port; p: *packet.Batch crossing the crossbar
	evHBMStep            // one HBM service-loop step
	evKickHBM            // wake the HBM service loop (pad-timeout maturation)
)

// Probe receives structural events from the running switch so an
// external checker (internal/validate) can verify the model's
// discipline independently of the switch's own bookkeeping: frame
// placement against the n mod (L/γ) rule, FIFO read order, per-pair
// packet order at egress, and per-packet delay against the ideal OQ
// shadow. All methods are called synchronously from the event loop;
// implementations must not retain the packet pointers.
type Probe interface {
	// FrameWritten reports a frame write: output, the frame's
	// per-output sequence number, and the bank group and row the
	// placement rule chose.
	FrameWritten(output int, seq int64, group, row int)
	// FrameRead reports a frame read with the same coordinates.
	FrameRead(output int, seq int64, group, row int)
	// PacketDeparted reports a delivered packet. oqDepart is the ideal
	// OQ shadow's departure time for the same packet, or -1 when the
	// shadow is disabled.
	PacketDeparted(p *packet.Packet, oqDepart sim.Time)
	// PacketDropped reports an ingress tail-drop.
	PacketDropped(p *packet.Packet)
}

// Switch is one HBM switch instance. Create with New, drive with Run.
type Switch struct {
	cfg   Config
	sched *sim.Scheduler
	mux   traffic.Stream // arrival stream being pumped by Run

	mem    *hbm.Memory
	engine *hbm.FrameEngine
	amap   *core.AddressMap
	gmap   *core.GroupMap // surviving-group cycle; nil when all groups live

	// Input side (➀).
	batchers    [][]*packet.Batcher // [input][output]
	inFIFO      []ring[*packet.Batch]
	inBusy      []bool
	inHighWater []int
	lastArrival []sim.Time
	batchID     uint64
	batchTime   sim.Time

	// Tail SRAM (➁).
	assemblers   []*packet.FrameAssembler
	perFrame     int                 // batches per frame
	tailFrames   []ring[*frameToken] // per-output completed frames (FIFO)
	writeFIFO    ring[*frameToken]   // global completion order
	tailMod      *sram.Module
	formingSince []sim.Time // per-output: when the forming frame started

	// HBM (➂➃).
	regions      []*core.Region        // static mode
	pageAlloc    *core.PageAllocator   // dynamic mode
	dynRegions   []*core.DynamicRegion // dynamic mode
	rowsPerPage  int64                 // dynamic mode row addressing
	dropSlack    int64
	regionFrames []ring[*packet.Frame] // frames resident in HBM, FIFO per output
	readSched    *core.ReadScheduler
	hbmBusy      bool
	hbmCursor    sim.Time
	phaseWrite   bool
	draining     bool

	// Head SRAM and output ports (➄➅).
	headMod    *sram.Module
	frameDrain sim.Time // time one frame takes to drain an egress port
	outBusy    []sim.Time
	subBusy    [][]sim.Time
	subBytes   [][]int64
	unbatchers []*packet.Unbatcher

	// OEO conversion energy accounting (O/E at ingress, E/O at
	// egress, §4's 1.15 pJ/bit).
	oeo *optics.OEOMeter

	// Observability (telemetry.go). Both are nil unless Instrument was
	// called; every hook is nil-guarded so the plain path is unchanged.
	tel       *telemetry.Registry
	tracer    *telemetry.Tracer
	traceProc int

	// Shadow ideal OQ switch, and its departure time for every packet
	// in flight, queued per flat (input, output) pair.
	shadow   *baseline.OQSwitch
	oqDepart []ring[oqEntry]

	// Optional structural probe (SetProbe); nil-guarded everywhere.
	probe Probe

	// Recycling (zero steady-state allocations). Packets return to the
	// traffic source's pool when the stream implements Recycle; batches,
	// frames, and write-FIFO tokens return to per-switch freelists as
	// the frame that carried them fully drains at egress.
	recycle   interface{ Recycle(p *packet.Packet) }
	batchPool packet.BatchPool
	framePool packet.FramePool
	tokFree   []*frameToken

	// Per-stage latency breakdown (picoseconds); Report reads only
	// each stage's mean.
	stageBatch stats.Mean // packet arrival -> batch complete
	stageXbar  stats.Mean // batch complete -> tail SRAM
	stageFrame stats.Mean // tail SRAM -> frame ready
	stageHBM   stats.Mean // frame ready -> head SRAM
	stageOut   stats.Mean // head SRAM -> packet departure

	// Measurements.
	warmup          sim.Time
	horizon         sim.Time
	offeredSteady   stats.Counter
	deliveredSteady stats.Counter
	shadowSteady    stats.Counter
	offered         stats.Counter
	delivered       stats.Counter
	dropped         stats.Counter
	perOutDelivered []stats.Counter
	latency         *stats.Histogram
	relDelay        *stats.Histogram
	framesWritten   int64
	framesRead      int64
	framesBypassed  int64
	framesPadded    int64
	padBytes        int64
	maxRegionFill   int64
	refreshes       int64
	refreshGroup    int
	lastDepart      sim.Time
	nextSeq         []int64    // flat [input*N+output] expected egress seq
	droppedSeqs     []seqQueue // flat [input*N+output] pending dropped seqs
	errs            []error
}

// seqQueue holds the sequence numbers dropped at ingress for one
// (input, output) pair, awaiting consumption by the egress order
// check. Drops per pair happen in increasing seq order and the check
// consumes them in increasing order, so a queue with a cursor replaces
// the former per-pair set.
type seqQueue struct {
	seqs []int64
	head int
}

// New builds a switch from a validated configuration.
func New(cfg Config) (*Switch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mem, err := hbm.NewMemory(cfg.EffectiveGeometry(), cfg.Timing)
	if err != nil {
		return nil, err
	}
	engine, err := hbm.NewFrameEngine(mem, cfg.PFI.Gamma, cfg.PFI.SegBytes)
	if err != nil {
		return nil, err
	}
	engine.SetMirror(!cfg.FullChannels)
	if err := engine.SetDeadChannels(cfg.Degraded.DeadChannels); err != nil {
		return nil, err
	}
	amap, err := core.NewAddressMap(cfg.PFI, mem.RowsPerBank())
	if err != nil {
		return nil, err
	}
	var gmap *core.GroupMap
	if len(cfg.Degraded.DeadGroups) > 0 {
		if gmap, err = core.NewGroupMap(cfg.PFI.Groups(), cfg.Degraded.DeadGroups); err != nil {
			return nil, err
		}
	}

	sched := &sim.Scheduler{}
	sched.SetAlgorithm(cfg.Sched)

	n := cfg.PFI.N
	s := &Switch{
		cfg:         cfg,
		sched:       sched,
		mem:         mem,
		engine:      engine,
		amap:        amap,
		gmap:        gmap,
		batchTime:   cfg.BatchTime(),
		perFrame:    cfg.PFI.BatchesPerFrame(),
		frameDrain:  sim.TransferTime(int64(cfg.PFI.FrameBytes())*8, cfg.PortRate),
		readSched:   core.NewReadScheduler(n),
		phaseWrite:  true,
		latency:     stats.NewLatencyHistogram(),
		relDelay:    stats.NewLatencyHistogram(),
		nextSeq:     make([]int64, n*n),
		droppedSeqs: make([]seqQueue, n*n),
	}
	ifaceIn := sram.Interface{WidthBits: sram.WidthForRate(2*cfg.PortRate, 2.5*sim.Gbps), Clock: 2.5 * sim.Gbps}
	s.tailMod = sram.NewModule("tail", ifaceIn, 0)
	s.headMod = sram.NewModule("head", ifaceIn, 0)
	s.oeo = optics.ReferenceOEO()

	s.batchers = make([][]*packet.Batcher, n)
	s.inFIFO = make([]ring[*packet.Batch], n)
	s.inBusy = make([]bool, n)
	s.inHighWater = make([]int, n)
	s.lastArrival = make([]sim.Time, n)
	s.assemblers = make([]*packet.FrameAssembler, n)
	s.tailFrames = make([]ring[*frameToken], n)
	s.formingSince = make([]sim.Time, n)
	s.regions = make([]*core.Region, n)
	s.regionFrames = make([]ring[*packet.Frame], n)
	s.outBusy = make([]sim.Time, n)
	s.unbatchers = make([]*packet.Unbatcher, n)
	s.perOutDelivered = make([]stats.Counter, n)
	nextBatchID := func() uint64 { s.batchID++; return s.batchID }
	for i := 0; i < n; i++ {
		s.batchers[i] = make([]*packet.Batcher, n)
		for j := 0; j < n; j++ {
			s.batchers[i][j] = packet.NewBatcher(i, j, cfg.PFI.BatchBytes, nextBatchID)
			s.batchers[i][j].SetPool(&s.batchPool)
		}
		s.assemblers[i] = packet.NewFrameAssembler(i, s.perFrame, cfg.PFI.BatchBytes)
		s.assemblers[i].SetPool(&s.framePool)
		s.regions[i] = core.NewRegion(amap.CapacityFramesIn(gmap))
		s.unbatchers[i] = packet.NewUnbatcher()
	}
	s.dropSlack = cfg.DropSlackFrames
	if s.dropSlack == 0 {
		s.dropSlack = int64(2 * n)
	}
	if cfg.DynamicPages > 0 {
		totalFrames := amap.CapacityFrames() * int64(n)
		alloc, err := core.NewPageAllocator(totalFrames, cfg.DynamicPages)
		if err != nil {
			return nil, err
		}
		s.pageAlloc = alloc
		if cfg.SharingAlpha > 0 {
			alloc.SetPolicy(core.DynamicThreshold{Alpha: cfg.SharingAlpha})
		}
		s.dynRegions = make([]*core.DynamicRegion, n)
		for i := 0; i < n; i++ {
			s.dynRegions[i] = core.NewDynamicRegion(alloc, i)
		}
		s.rowsPerPage = cfg.DynamicPages / int64(cfg.PFI.Groups()*cfg.PFI.SegmentsPerRow())
	}
	if cfg.HashedEgress {
		s.subBusy = make([][]sim.Time, n)
		s.subBytes = make([][]int64, n)
		for i := range s.subBusy {
			s.subBusy[i] = make([]sim.Time, cfg.Subchannels)
			s.subBytes[i] = make([]int64, cfg.Subchannels)
		}
	}
	if cfg.Shadow {
		s.shadow = baseline.NewOQSwitch(n, cfg.PortRate)
		s.oqDepart = make([]ring[oqEntry], n*n)
	}
	return s, nil
}

// SetProbe attaches a structural probe. Call before Run; a nil probe
// restores the unobserved fast path.
func (s *Switch) SetProbe(p Probe) { s.probe = p }

// faultGroup applies the configured self-test placement defect, if
// any, to a bank group chosen by the placement rule. Used by the
// validation harness to prove its detectors catch a broken placement
// discipline; the operational dead-group remapping happens earlier, in
// locate (Config.Degraded).
func (s *Switch) faultGroup(group int) int {
	if s.cfg.SelfTest.FixedGroup {
		return 0
	}
	return group
}

// locate maps a static-mode frame sequence to its address, cycling
// over only the surviving bank groups when some are dead (the
// remapped n mod (L'/γ) residency rule).
func (s *Switch) locate(out int, n int64) core.FrameAddr {
	if s.gmap != nil {
		return s.amap.LocateIn(s.gmap, out, n)
	}
	return s.amap.Locate(out, n)
}

// HandleEvent dispatches the switch's intrusive events (sim.Handler).
func (s *Switch) HandleEvent(code, a int, p any) {
	switch code {
	case evInject:
		s.inject(p.(*packet.Packet))
		s.pump()
	case evFlushCheck:
		// The event fires exactly at its deadline, so Now() is it.
		s.flushCheck(a, s.sched.Now())
	case evBatchAtTail:
		s.deliverBatch(p.(*packet.Batch))
		if s.inFIFO[a].Len() > 0 {
			s.startInputService(a)
		} else {
			s.inBusy[a] = false
		}
	case evHBMStep:
		s.hbmStep()
	case evKickHBM:
		s.kickHBM()
	default:
		s.fail("unknown event code %d", code)
	}
}

// fail records a model invariant violation.
func (s *Switch) fail(format string, args ...interface{}) {
	if len(s.errs) < 32 {
		s.errs = append(s.errs, fmt.Errorf(format, args...))
	}
}

// ---- Input side -----------------------------------------------------

// inject processes one packet arrival (last byte on the wire at now).
func (s *Switch) inject(p *packet.Packet) {
	now := s.sched.Now()
	in := int(p.Input)
	s.offered.Add(p.Size)
	if now > s.warmup && now <= s.horizon {
		s.offeredSteady.Add(p.Size)
	}
	// Ingress tail-drop: when the output's buffering (HBM region plus
	// in-flight slack) is exhausted, the packet is dropped at the
	// input, as a shared-buffer switch would.
	if !s.outputHasRoom(int(p.Output)) {
		s.dropped.Add(p.Size)
		q := &s.droppedSeqs[p.Pair(s.cfg.PFI.N)]
		q.seqs = append(q.seqs, p.Seq)
		if s.tracer != nil {
			s.tracer.Instant("drop", s.traceProc, in, now, p.ID)
		}
		if s.probe != nil {
			s.probe.PacketDropped(p)
		}
		s.freePacket(p)
		return
	}
	s.oeo.Convert(int64(p.Size) * 8) // O/E at the ingress waveguide
	if s.shadow != nil {
		oq := s.shadow.Arrive(p)
		s.oqDepart[p.Pair(s.cfg.PFI.N)].PushBack(oqEntry{id: p.ID, oq: oq})
		if oq > s.warmup && oq <= s.horizon {
			s.shadowSteady.Add(p.Size)
		}
	}
	s.lastArrival[in] = now
	for _, b := range s.batchers[in][p.Output].Add(p) {
		s.enqueueBatch(in, b)
	}
	if s.cfg.FlushTimeout > 0 {
		s.sched.AfterEvent(s.cfg.FlushTimeout, s, evFlushCheck, in, nil)
	}
}

// flushCheck flushes input i's partial batches if no packet has
// arrived since the timer was set.
func (s *Switch) flushCheck(input int, deadline sim.Time) {
	if s.lastArrival[input]+s.cfg.FlushTimeout != deadline {
		return // superseded by a newer arrival
	}
	s.flushInput(input)
}

// flushInput pads out all partial batches of one input port.
func (s *Switch) flushInput(input int) {
	for j := 0; j < s.cfg.PFI.N; j++ {
		if b := s.batchers[input][j].Flush(); b != nil {
			s.enqueueBatch(input, b)
		}
	}
}

// enqueueBatch places a completed batch in the input port's FIFO and
// starts the port server if idle.
func (s *Switch) enqueueBatch(input int, b *packet.Batch) {
	b.Completed = s.sched.Now()
	for _, fr := range b.Frags {
		if fr.Off+fr.Len == fr.Pkt.Size {
			s.stageBatch.AddTime(b.Completed - fr.Pkt.Arrival)
		}
	}
	if s.tracer != nil {
		s.traceBatch(b)
	}
	s.inFIFO[input].PushBack(b)
	if l := s.inFIFO[input].Len(); l > s.inHighWater[input] {
		s.inHighWater[input] = l
	}
	if !s.inBusy[input] {
		s.startInputService(input)
	}
}

// startInputService begins slicing the head-of-line batch across the
// cyclical crossbar; the batch lands in the tail SRAM one batch time
// later (N slice slots).
func (s *Switch) startInputService(input int) {
	s.inBusy[input] = true
	b := s.inFIFO[input].PopFront()
	s.sched.AfterEvent(s.batchTime, s, evBatchAtTail, input, b)
}

// deliverBatch lands a batch in the tail SRAM and advances frame
// assembly.
func (s *Switch) deliverBatch(b *packet.Batch) {
	now := s.sched.Now()
	b.AtTail = now
	s.stageXbar.AddTime(now - b.Completed)
	if s.tracer != nil {
		s.traceXbar(b)
	}
	if err := s.tailMod.Write(b.Output, int64(b.Size), now); err != nil {
		s.fail("tail write: %v", err)
	}
	asm := s.assemblers[b.Output]
	if asm.PendingBatches() == 0 {
		s.formingSince[b.Output] = now
	}
	if f := asm.Add(b); f != nil {
		if asm.PendingBatches() > 0 {
			s.formingSince[b.Output] = now
		}
		s.frameReady(f)
	} else if s.cfg.Policy.PadFrames {
		// A partial frame now exists; a padding read turn may want it
		// once it matures past the pad timeout.
		if s.cfg.PadTimeout > 0 {
			s.sched.AfterEvent(s.cfg.PadTimeout, s, evKickHBM, 0, nil)
		} else {
			s.kickHBM()
		}
	}
}

// padAllowed reports whether the forming frame of an output is old
// enough (and the egress line idle enough) to justify padding.
func (s *Switch) padAllowed(out int, now sim.Time) bool {
	if s.draining {
		return true
	}
	if s.outBusy[out] > now {
		return false
	}
	return now-s.formingSince[out] >= s.cfg.PadTimeout
}

// frameReady queues a completed frame for HBM writing.
func (s *Switch) frameReady(f *packet.Frame) {
	f.Ready = s.sched.Now()
	for _, b := range f.Batches {
		s.stageFrame.AddTime(f.Ready - b.AtTail)
	}
	if s.tracer != nil {
		s.traceFrame(f)
	}
	tok := s.newToken(f)
	s.tailFrames[f.Output].PushBack(tok)
	s.writeFIFO.PushBack(tok)
	s.kickHBM()
}

// ---- Region abstraction (static 1/N vs dynamic pages) ----------------

// regionLen returns the frames resident in the HBM for an output.
func (s *Switch) regionLen(out int) int64 {
	if s.pageAlloc != nil {
		return s.dynRegions[out].Len()
	}
	return s.regions[out].Len()
}

// regionPush claims the next write slot and returns the frame's
// per-output sequence number plus the bank group and row for it.
func (s *Switch) regionPush(out int) (seq int64, group, row int, ok bool) {
	if s.pageAlloc != nil {
		n, ok := s.dynRegions[out].Push()
		if !ok {
			return 0, 0, 0, false
		}
		g, r, err := s.dynLocate(out, n)
		if err != nil {
			s.fail("dynamic locate (push): %v", err)
			return 0, 0, 0, false
		}
		return n, s.faultGroup(g), r, true
	}
	n, ok := s.regions[out].Push()
	if !ok {
		return 0, 0, 0, false
	}
	addr := s.locate(out, n)
	return n, s.faultGroup(addr.Group), addr.Row, true
}

// regionPop claims the next read slot and returns its sequence number,
// bank group, and row.
func (s *Switch) regionPop(out int) (seq int64, group, row int, ok bool) {
	if s.pageAlloc != nil {
		n, ok := s.dynRegions[out].Peek()
		if !ok {
			return 0, 0, 0, false
		}
		g, r, err := s.dynLocate(out, n)
		if err != nil {
			s.fail("dynamic locate (pop): %v", err)
			return 0, 0, 0, false
		}
		s.dynRegions[out].Pop()
		return n, s.faultGroup(g), r, true
	}
	n, ok := s.regions[out].Pop()
	if !ok {
		return 0, 0, 0, false
	}
	addr := s.locate(out, n)
	return n, s.faultGroup(addr.Group), addr.Row, true
}

// dynLocate maps a live frame sequence to (group, row) in dynamic
// mode: the bank group stays n mod (L/γ); the row comes from the
// frame's (page, slot) position, with page slots aligned to the group
// rotation (page sizes are multiples of groups x segments-per-row).
func (s *Switch) dynLocate(out int, n int64) (group, row int, err error) {
	page, slot, err := s.dynRegions[out].Locate(n)
	if err != nil {
		return 0, 0, err
	}
	groups := int64(s.cfg.PFI.Groups())
	segsPerRow := int64(s.cfg.PFI.SegmentsPerRow())
	withinGroup := slot / groups
	row = int(page*s.rowsPerPage + withinGroup/segsPerRow)
	return int(n % groups), row, nil
}

// outputHasRoom reports whether an arriving packet for the output can
// still be buffered, keeping dropSlack frames of headroom for data in
// flight through the SRAM stages.
func (s *Switch) outputHasRoom(out int) bool {
	pending := int64(s.tailFrames[out].Len()) +
		int64(s.assemblers[out].PendingBatches()/s.perFrame) + 1
	if s.pageAlloc != nil {
		// Slots already claimed cover the in-flight data without a new
		// page; beyond that the pool and the sharing policy must both
		// be willing.
		if s.dynRegions[out].Headroom() > pending+s.dropSlack {
			return true
		}
		if !s.pageAlloc.MayGrow(out) {
			return false
		}
		free := s.pageAlloc.FreePages() * s.pageAlloc.FramesPerPage()
		return free+s.dynRegions[out].Headroom() > pending+s.dropSlack
	}
	r := s.regions[out]
	return r.Capacity()-r.Len() > pending+s.dropSlack
}

// ---- HBM service loop ------------------------------------------------

// kickHBM wakes the memory service loop if it is sleeping.
func (s *Switch) kickHBM() {
	if s.hbmBusy {
		return
	}
	s.hbmBusy = true
	at := s.sched.Now()
	if s.hbmCursor > at {
		at = s.hbmCursor
	}
	s.sched.AtEvent(at, s, evHBMStep, 0, nil)
}

// hbmStep performs one frame operation (write or read/bypass),
// alternating phases for write/read fairness, then reschedules itself
// while work remains.
func (s *Switch) hbmStep() {
	var did bool
	var retryAt sim.Time
	if s.phaseWrite {
		did = s.tryWrite()
		if !did {
			did, retryAt = s.tryRead()
		}
	} else {
		did, retryAt = s.tryRead()
		if !did {
			did = s.tryWrite()
		}
	}
	s.phaseWrite = !s.phaseWrite
	if did {
		at := s.sched.Now()
		if s.hbmCursor > at {
			at = s.hbmCursor
		}
		s.sched.AtEvent(at, s, evHBMStep, 0, nil)
		return
	}
	if retryAt > s.sched.Now() {
		// Every actionable output was blocked only by head-SRAM
		// backpressure; retry when the earliest egress drains.
		s.sched.AtEvent(retryAt, s, evHBMStep, 0, nil)
		return
	}
	s.hbmBusy = false
}

// tryWrite writes the oldest pending frame into the HBM. Returns
// whether it did any work. A frame whose output cannot claim memory
// right now (dynamic mode with a sharing policy) stays queued; reads
// keep draining and freeing pages, so it retries on a later step.
func (s *Switch) tryWrite() bool {
	tok := s.popWriteFIFO()
	if tok == nil {
		return false
	}
	f := tok.frame
	if !s.writeFrame(f) {
		// Re-queue at the front; order within the FIFO is preserved.
		s.writeFIFO.PushFront(tok)
		return false
	}
	// Remove from the per-output queue (it is necessarily the front).
	q := &s.tailFrames[f.Output]
	if q.Len() == 0 || q.Front() != tok {
		s.fail("write FIFO and per-output queue out of sync for output %d", f.Output)
	} else {
		q.PopFront()
	}
	s.freeToken(tok)
	return true
}

func (s *Switch) popWriteFIFO() *frameToken {
	for s.writeFIFO.Len() > 0 {
		tok := s.writeFIFO.PopFront()
		if !tok.stale {
			return tok
		}
		s.freeToken(tok) // bypassed frame already left the tail queue
	}
	return nil
}

// writeFrame performs the PFI frame write for f, reporting whether
// the region had space (false means retry later).
func (s *Switch) writeFrame(f *packet.Frame) bool {
	now := s.sched.Now()
	out := f.Output
	seq, group, row, ok := s.regionPush(out)
	if !ok {
		if s.pageAlloc == nil {
			// Static regions cannot free up from another output's
			// reads, so the ingress tail-drop threshold should have
			// prevented this; the slack was too small.
			s.fail("HBM region for output %d full despite ingress drop threshold", out)
		}
		return false
	}
	start, end, err := s.engine.WriteFrame(group, row, now)
	if err != nil {
		s.fail("frame write: %v", err)
		return false
	}
	s.hbmCursor = end
	s.framesWritten++
	if s.probe != nil {
		s.probe.FrameWritten(out, seq, group, row)
	}
	if l := s.regionLen(out); l > s.maxRegionFill {
		s.maxRegionFill = l
	}
	if err := s.tailMod.Read(out, int64(len(f.Batches)*s.cfg.PFI.BatchBytes), start); err != nil {
		s.fail("tail read: %v", err)
	}
	s.regionFrames[out].PushBack(f)
	return true
}

// tryRead serves one cyclical read visit: it scans outputs in cyclical
// order and performs the first actionable read, bypass, or pad-write.
// It returns whether it did work, and — when everything actionable was
// blocked only by head-SRAM backpressure — the earliest time a retry
// can succeed.
func (s *Switch) tryRead() (bool, sim.Time) {
	now := s.sched.Now()
	var retryAt sim.Time
	for i := 0; i < s.cfg.PFI.N; i++ {
		out := s.readSched.Next()
		pol := s.cfg.Policy
		if s.draining {
			pol = core.Policy{PadFrames: true, BypassHBM: true}
		}
		action := pol.Decide(
			s.regionLen(out),
			s.tailFrames[out].Len() > 0,
			s.assemblers[out].PendingBatches() > 0,
		)
		if action == core.Idle {
			continue
		}
		// Head-SRAM backpressure: an output already holding about two
		// undrained frames (double-buffered head slices) is skipped
		// this visit, so overload backlog accumulates in the HBM (its
		// purpose, §4) rather than in the bounded head SRAM, while one
		// frame of slack absorbs cyclical-visit jitter.
		if s.outBusy[out] > now+2*s.frameDrain {
			eligible := s.outBusy[out] - 2*s.frameDrain
			if retryAt == 0 || eligible < retryAt {
				retryAt = eligible
			}
			continue
		}
		switch action {
		case core.ReadHBM:
			s.readFrame(out)
			return true, 0
		case core.Bypass:
			if s.bypassFrame(out, now) {
				return true, 0
			}
		case core.PadWrite:
			if s.padThroughHBM(out, now) {
				return true, 0
			}
		}
	}
	return false, retryAt
}

// readFrame reads output out's oldest HBM frame and hands it to the
// head SRAM.
func (s *Switch) readFrame(out int) {
	now := s.sched.Now()
	seq, group, row, ok := s.regionPop(out)
	if !ok {
		s.fail("read from empty region %d", out)
		return
	}
	_, end, err := s.engine.ReadFrame(group, row, now)
	if err != nil {
		s.fail("frame read: %v", err)
		return
	}
	s.hbmCursor = end
	s.framesRead++
	if s.probe != nil {
		s.probe.FrameRead(out, seq, group, row)
	}
	if s.regionFrames[out].Len() == 0 {
		s.fail("region frame queue empty for output %d", out)
		return
	}
	f := s.regionFrames[out].PopFront()
	s.deliverFrame(f, end, "hbm")
}

// bypassFrame sends the oldest tail frame (padding a partial one if
// needed) directly to the head SRAM, skipping the HBM. The transfer
// still occupies the memory-side datapath for one frame time.
func (s *Switch) bypassFrame(out int, now sim.Time) bool {
	var f *packet.Frame
	if q := &s.tailFrames[out]; q.Len() > 0 {
		tok := q.PopFront()
		tok.stale = true
		f = tok.frame
		tok.frame = nil // the stale token outlives the recycled frame
	} else {
		// Pad the forming frame — only once it has matured and the
		// egress line is about to idle; otherwise let it keep filling.
		if !s.padAllowed(out, now) {
			return false
		}
		f = s.assemblers[out].Pad()
		if f == nil {
			return false
		}
		f.Ready = now
		for _, b := range f.Batches {
			s.stageFrame.AddTime(now - b.AtTail)
		}
		if s.tracer != nil {
			s.traceFrame(f)
		}
		if !s.draining {
			s.framesPadded++
			s.padBytes += int64(f.PadBytes())
		}
	}
	end := now + s.engine.FrameTime()
	s.hbmCursor = end
	if !s.draining {
		s.framesBypassed++
	}
	if err := s.tailMod.Read(out, int64(len(f.Batches)*s.cfg.PFI.BatchBytes), now); err != nil {
		s.fail("tail read (bypass): %v", err)
	}
	s.deliverFrame(f, end, "bypass")
	return true
}

// padThroughHBM pads the forming frame and queues it on the normal
// write path (padding without bypass).
func (s *Switch) padThroughHBM(out int, now sim.Time) bool {
	if !s.padAllowed(out, now) {
		return false
	}
	f := s.assemblers[out].Pad()
	if f == nil {
		return false
	}
	if !s.draining {
		s.framesPadded++
		s.padBytes += int64(f.PadBytes())
	}
	s.frameReady(f)
	return true
}

// ---- Head SRAM and output ports ---------------------------------------

// deliverFrame lands a frame in the head SRAM at time at and drains
// its batches out of the egress port, recording packet departures.
// via names the memory path taken ("hbm" or "bypass") for the tracer.
func (s *Switch) deliverFrame(f *packet.Frame, at sim.Time, via string) {
	out := f.Output
	s.stageHBM.AddTime(at - f.Ready)
	if s.tracer != nil {
		s.traceHBM(f, at, via)
	}
	dataBytes := int64(len(f.Batches) * s.cfg.PFI.BatchBytes)
	if err := s.headMod.Write(out, dataBytes, at); err != nil {
		s.fail("head write: %v", err)
	}
	cursor := s.outBusy[out]
	if at > cursor {
		cursor = at
	}
	for _, b := range f.Batches {
		if done, err := s.unbatchers[out].Add(b); err != nil {
			s.fail("unbatch: %v", err)
		} else {
			_ = done
		}
		real := int64(b.DataBytes())
		var cum int64
		batchStart := cursor
		for _, fr := range b.Frags {
			cum += int64(fr.Len)
			if fr.Off+fr.Len == fr.Pkt.Size { // packet's last byte
				s.departPacket(fr.Pkt, batchStart, cum, out)
				s.stageOut.AddTime(fr.Pkt.Depart - at)
				if s.tracer != nil && s.tracer.Sampled(fr.Pkt.ID) {
					s.tracer.Span("egress", s.traceProc, out, at, fr.Pkt.Depart, fr.Pkt.ID)
				}
				// The last fragment just drained: the packet is dead.
				s.freePacket(fr.Pkt)
			}
		}
		cursor = batchStart + sim.TransferTime(real*8, s.cfg.PortRate)
		if err := s.headMod.Read(out, int64(b.Size), cursor); err != nil {
			s.fail("head read: %v", err)
		}
		s.batchPool.Put(b)
	}
	s.outBusy[out] = cursor
	s.framePool.Put(f)
}

// departPacket finalizes one packet's departure.
func (s *Switch) departPacket(p *packet.Packet, batchStart sim.Time, cumBytes int64, out int) {
	var depart sim.Time
	if s.cfg.HashedEgress {
		m := p.Flow.Member(s.cfg.HashSeed, s.cfg.Subchannels)
		subRate := s.cfg.PortRate / sim.Rate(s.cfg.Subchannels)
		start := s.subBusy[out][m]
		if batchStart > start {
			start = batchStart
		}
		depart = start + sim.TransferTime(int64(p.Size)*8, subRate)
		s.subBusy[out][m] = depart
		s.subBytes[out][m] += int64(p.Size)
	} else {
		depart = batchStart + sim.TransferTime(cumBytes*8, s.cfg.PortRate)
	}
	s.oeo.Convert(int64(p.Size) * 8) // E/O back onto the egress waveguide
	p.Depart = depart
	if depart > s.lastDepart {
		s.lastDepart = depart
	}
	s.delivered.Add(p.Size)
	if depart > s.warmup && depart <= s.horizon {
		s.deliveredSteady.Add(p.Size)
	}
	s.perOutDelivered[out].Add(p.Size)
	s.latency.AddTime(p.Latency())
	pair := p.Pair(s.cfg.PFI.N)
	oq := sim.Time(-1)
	if s.shadow != nil {
		if t, ok := takeOQ(&s.oqDepart[pair], p.ID); ok {
			oq = t
			delta := depart - t
			if delta < 0 {
				delta = 0 // the HBM switch beat the shadow (possible at idle)
			}
			s.relDelay.AddTime(delta)
		} else {
			s.fail("packet %d departed twice or never shadowed", p.ID)
		}
	}
	if s.probe != nil {
		s.probe.PacketDeparted(p, oq)
	}
	expected := s.nextSeq[pair]
	q := &s.droppedSeqs[pair]
	for q.head < len(q.seqs) && q.seqs[q.head] <= expected {
		if q.seqs[q.head] == expected {
			expected++
		}
		q.head++
	}
	if q.head == len(q.seqs) {
		q.seqs = q.seqs[:0]
		q.head = 0
	}
	if p.Seq != expected {
		s.fail("order violation (%d->%d): seq %d want %d", p.Input, p.Output, p.Seq, expected)
	}
	s.nextSeq[pair] = p.Seq + 1
}

// ---- Run loop ----------------------------------------------------------

// Run feeds the arrival stream (a traffic.Mux or a replayed
// traffic.TraceStream) until the horizon, then drains the switch to
// empty, and returns the measurement report. It is exactly
// Start + Finish; callers that drive many switches in lockstep epochs
// (sps.Router.RunSharded) interleave AdvanceTo calls in between.
func (s *Switch) Run(mux traffic.Stream, horizon sim.Time) (*Report, error) {
	s.Start(mux, horizon)
	return s.Finish()
}

// Start primes an incremental run: arrival pumping, telemetry, and the
// refresh ticker are armed but no events execute. Drive the switch
// with AdvanceTo and complete it with Finish. The sharding invariant
// (docs/perf.md): Start + any sequence of AdvanceTo calls + Finish
// executes exactly the same events in exactly the same order as Run,
// so results are byte-identical regardless of how a run is sliced.
func (s *Switch) Start(mux traffic.Stream, horizon sim.Time) {
	s.horizon = horizon
	// The steady-state window starts after the pipeline-fill transient
	// (frame assembly + first HBM round trip); a third of the horizon
	// is comfortably past it for the horizons the experiments use.
	s.warmup = horizon / 3
	s.mux = mux
	// Streams that can take dead packets back (traffic.Mux over pooled
	// sources) make the whole arrival->departure path allocation-free.
	s.recycle, _ = mux.(interface{ Recycle(p *packet.Packet) })
	s.tel.Start(s.sched, horizon) // nil-safe no-op when uninstrumented
	s.pump()
	if s.cfg.EnableRefresh {
		// One group refreshed per tick keeps every bank inside its
		// tREFI budget: groups * period = tREF.
		period := s.cfg.Timing.TREF / sim.Time(s.cfg.PFI.Groups())
		s.sched.Ticker(period, period, func(now sim.Time) bool {
			g := s.refreshGroup
			s.refreshGroup = (g + 1) % s.cfg.PFI.Groups()
			if err := s.engine.RefreshGroup(g, now); err != nil {
				s.fail("refresh group %d: %v", g, err)
				return false
			}
			s.refreshes++
			return now < horizon
		})
	}
}

// AdvanceTo executes every pending event at or before t and leaves the
// clock there. Between calls the switch is quiescent and may be handed
// to another goroutine (the lockstep-epoch sharding transfers switches
// across parallel.Map workers epoch by epoch).
func (s *Switch) AdvanceTo(t sim.Time) { s.sched.RunUntil(t) }

// Finish runs the remaining events past the last AdvanceTo horizon,
// drains the switch to empty, and returns the measurement report.
func (s *Switch) Finish() (*Report, error) {
	s.sched.Run()

	// Drain: repeatedly flush residual partial batches/frames until the
	// switch is empty. Padding and bypass are forced during drain so
	// accounting closes even when the run's policy disables them.
	s.draining = true
	for pass := 0; !s.empty(); pass++ {
		if pass > 10000 {
			s.fail("drain did not converge")
			break
		}
		for i := 0; i < s.cfg.PFI.N; i++ {
			s.flushInput(i)
		}
		s.kickHBM()
		s.sched.Run()
	}
	// Publish the run's event-core internals to the process-wide
	// collector (monitoring only — the report below is already final,
	// so deterministic outputs never depend on this).
	corestats.Default.RecordRun(s.CoreStats())
	return s.report(s.horizon), s.firstErr()
}

// pump schedules the next arrival from the stream; the evInject
// handler injects it and pumps again, one in-flight event at a time.
func (s *Switch) pump() {
	p, at := s.mux.Next()
	if p == nil || at > s.horizon {
		return
	}
	s.sched.AtEvent(at, s, evInject, 0, p)
}

// empty reports whether any stage still holds data.
func (s *Switch) empty() bool {
	for i := 0; i < s.cfg.PFI.N; i++ {
		for j := 0; j < s.cfg.PFI.N; j++ {
			if s.batchers[i][j].QueuedBytes() > 0 {
				return false
			}
		}
		if s.inFIFO[i].Len() > 0 || s.inBusy[i] {
			return false
		}
		if s.assemblers[i].PendingBatches() > 0 {
			return false
		}
		if s.tailFrames[i].Len() > 0 || s.regions[i].Len() > 0 {
			return false
		}
	}
	return s.allTokensDrained()
}

func (s *Switch) allTokensDrained() bool {
	for i := 0; i < s.writeFIFO.Len(); i++ {
		if !s.writeFIFO.At(i).stale {
			return false
		}
	}
	return true
}

func (s *Switch) firstErr() error {
	if len(s.errs) > 0 {
		return s.errs[0]
	}
	return nil
}
