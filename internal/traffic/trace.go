package traffic

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
)

// Trace files make workloads repeatable across runs and tools: a
// generator (cmd/trafficgen) writes the arrival stream once; the
// simulators replay it bit-for-bit. The format is a fixed 32-byte
// little-endian record per packet after a 16-byte header.

// traceMagic identifies pbrouter trace files.
const traceMagic = 0x50425254 // "PBRT"

// traceVersion is bumped on format changes.
const traceVersion = 1

// TraceHeader describes a trace file.
type TraceHeader struct {
	N       int   // switch port count
	Packets int64 // record count
}

// TraceWriter streams packets to a trace file in arrival order.
type TraceWriter struct {
	w     *bufio.Writer
	n     int
	count int64
	last  sim.Time
}

// NewTraceWriter writes a header for an N-port trace and returns the
// writer. Finish must be called to learn the count (the header count
// field is a trailer in spirit: readers take the count from records
// actually present; the header stores N only).
func NewTraceWriter(w io.Writer, n int) (*TraceWriter, error) {
	tw := &TraceWriter{w: bufio.NewWriter(w), n: n}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:], traceVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(n))
	if _, err := tw.w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return tw, nil
}

// Add appends one packet. Packets must be in nondecreasing arrival
// order.
func (tw *TraceWriter) Add(p *packet.Packet) error {
	if p.Arrival < tw.last {
		return fmt.Errorf("traffic: trace arrivals out of order (%v after %v)", p.Arrival, tw.last)
	}
	tw.last = p.Arrival
	if p.Input < 0 || int(p.Input) >= tw.n || p.Output < 0 || int(p.Output) >= tw.n {
		return fmt.Errorf("traffic: packet ports (%d,%d) outside 0..%d", p.Input, p.Output, tw.n-1)
	}
	var rec [32]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(p.Arrival))
	binary.LittleEndian.PutUint32(rec[8:], uint32(p.Size))
	binary.LittleEndian.PutUint16(rec[12:], uint16(p.Input))
	binary.LittleEndian.PutUint16(rec[14:], uint16(p.Output))
	binary.LittleEndian.PutUint32(rec[16:], p.Flow.SrcIP)
	binary.LittleEndian.PutUint32(rec[20:], p.Flow.DstIP)
	binary.LittleEndian.PutUint16(rec[24:], p.Flow.SrcPort)
	binary.LittleEndian.PutUint16(rec[26:], p.Flow.DstPort)
	rec[28] = p.Flow.Proto
	if _, err := tw.w.Write(rec[:]); err != nil {
		return err
	}
	tw.count++
	return nil
}

// Finish flushes the writer and returns how many packets were written.
func (tw *TraceWriter) Finish() (int64, error) {
	return tw.count, tw.w.Flush()
}

// TraceReader replays a trace file.
type TraceReader struct {
	r    *bufio.Reader
	hdr  TraceHeader
	id   uint64
	seqs map[uint64]int64
}

// NewTraceReader validates the header and returns a reader.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	tr := &TraceReader{r: bufio.NewReader(r), seqs: make(map[uint64]int64)}
	var hdr [16]byte
	if _, err := io.ReadFull(tr.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("traffic: trace header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != traceMagic {
		return nil, fmt.Errorf("traffic: not a pbrouter trace")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != traceVersion {
		return nil, fmt.Errorf("traffic: trace version %d, want %d", v, traceVersion)
	}
	tr.hdr.N = int(binary.LittleEndian.Uint32(hdr[8:]))
	if tr.hdr.N <= 0 || tr.hdr.N > 1<<16 {
		return nil, fmt.Errorf("traffic: implausible port count %d", tr.hdr.N)
	}
	return tr, nil
}

// Header returns the trace metadata.
func (tr *TraceReader) Header() TraceHeader { return tr.hdr }

// Next returns the next packet, or (nil, io.EOF semantics) at end:
// ok=false with no error means a clean end of trace.
func (tr *TraceReader) Next() (p *packet.Packet, ok bool, err error) {
	var rec [32]byte
	if _, err := io.ReadFull(tr.r, rec[:]); err != nil {
		if err == io.EOF {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("traffic: trace record: %w", err)
	}
	tr.id++
	// The record holds a 32-bit size; anything past the jumbo bound
	// would also wrap Packet's int32 Size, so both ends are checked
	// before the narrowing.
	size := binary.LittleEndian.Uint32(rec[8:])
	if size == 0 || size > packet.MaxSize {
		return nil, false, fmt.Errorf("traffic: trace packet %d has size %d outside 1..%d",
			tr.id, size, packet.MaxSize)
	}
	in, out := int(binary.LittleEndian.Uint16(rec[12:])), int(binary.LittleEndian.Uint16(rec[14:]))
	if in >= tr.hdr.N || out >= tr.hdr.N {
		return nil, false, fmt.Errorf("traffic: trace packet %d has ports (%d,%d) outside 0..%d",
			tr.id, in, out, tr.hdr.N-1)
	}
	p = &packet.Packet{
		ID:      tr.id,
		Arrival: sim.Time(binary.LittleEndian.Uint64(rec[0:])),
		Size:    int32(size),
		Input:   int32(in),
		Output:  int32(out),
		Flow: packet.FiveTuple{
			SrcIP:   binary.LittleEndian.Uint32(rec[16:]),
			DstIP:   binary.LittleEndian.Uint32(rec[20:]),
			SrcPort: binary.LittleEndian.Uint16(rec[24:]),
			DstPort: binary.LittleEndian.Uint16(rec[26:]),
			Proto:   rec[28],
		},
	}
	pair := uint64(p.Input)<<32 | uint64(uint32(p.Output))
	p.Seq = tr.seqs[pair]
	tr.seqs[pair]++
	return p, true, nil
}

// Stream is the packet-feed interface the switch simulators consume:
// packets in nondecreasing arrival time, nil at the end. Mux and
// TraceStream both implement it.
type Stream interface {
	Next() (*packet.Packet, sim.Time)
}

// TraceStream adapts a TraceReader to the Stream interface. Read
// errors terminate the stream; check Err after the run.
type TraceStream struct {
	tr  *TraceReader
	err error
}

// NewTraceStream opens a trace for replay.
func NewTraceStream(r io.Reader) (*TraceStream, error) {
	tr, err := NewTraceReader(r)
	if err != nil {
		return nil, err
	}
	return &TraceStream{tr: tr}, nil
}

// Header exposes the trace metadata.
func (ts *TraceStream) Header() TraceHeader { return ts.tr.Header() }

// Next implements Stream.
func (ts *TraceStream) Next() (*packet.Packet, sim.Time) {
	if ts.err != nil {
		return nil, sim.Forever
	}
	p, ok, err := ts.tr.Next()
	if err != nil {
		ts.err = err
		return nil, sim.Forever
	}
	if !ok {
		return nil, sim.Forever
	}
	return p, p.Arrival
}

// Err returns the first read error, if any.
func (ts *TraceStream) Err() error { return ts.err }

// TraceStats summarizes a trace.
type TraceStats struct {
	Packets   int64
	Bytes     int64
	First     sim.Time
	Last      sim.Time
	MinSize   int
	MaxSize   int
	PerInput  []int64 // bytes per input
	PerOutput []int64 // bytes per output
}

// Duration returns the trace's arrival span.
func (s TraceStats) Duration() sim.Time { return s.Last - s.First }

// MeanRatePerInput returns the mean offered rate of the busiest input.
func (s TraceStats) MeanRatePerInput() sim.Rate {
	if s.Duration() <= 0 {
		return 0
	}
	var max int64
	for _, b := range s.PerInput {
		if b > max {
			max = b
		}
	}
	return sim.RateOf(max*8, s.Duration())
}

// ScanTrace reads a whole trace and returns its statistics.
func ScanTrace(r io.Reader) (TraceStats, error) {
	tr, err := NewTraceReader(r)
	if err != nil {
		return TraceStats{}, err
	}
	st := TraceStats{
		PerInput:  make([]int64, tr.hdr.N),
		PerOutput: make([]int64, tr.hdr.N),
		MinSize:   1 << 30,
	}
	first := true
	for {
		p, ok, err := tr.Next()
		if err != nil {
			return st, err
		}
		if !ok {
			break
		}
		if first {
			st.First = p.Arrival
			first = false
		}
		st.Last = p.Arrival
		st.Packets++
		st.Bytes += int64(p.Size)
		st.MinSize = min(st.MinSize, int(p.Size))
		st.MaxSize = max(st.MaxSize, int(p.Size))
		st.PerInput[p.Input] += int64(p.Size)
		st.PerOutput[p.Output] += int64(p.Size)
	}
	if st.Packets == 0 {
		st.MinSize = 0
	}
	return st, nil
}
