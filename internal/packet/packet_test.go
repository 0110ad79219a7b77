package packet

import (
	"testing"
	"testing/quick"

	"pbrouter/internal/sim"
)

func idGen() func() uint64 {
	var n uint64
	return func() uint64 { n++; return n }
}

func TestPacketValidate(t *testing.T) {
	p := &Packet{ID: 1, Size: 64}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Packet{ID: 2, Size: 0}
	if bad.Validate() == nil {
		t.Fatal("zero-size packet accepted")
	}
	neg := &Packet{ID: 3, Size: 64, Input: -1}
	if neg.Validate() == nil {
		t.Fatal("negative port accepted")
	}
}

func TestPacketLatency(t *testing.T) {
	p := &Packet{Arrival: 100, Depart: 350}
	if p.Latency() != 250 {
		t.Fatalf("latency %v", p.Latency())
	}
}

func TestPacketLatencyPanicsBeforeDeparture(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := &Packet{Arrival: 100, Depart: 50}
	p.Latency()
}

func TestFiveTupleHashDeterministicAndSeedSensitive(t *testing.T) {
	ft := FiveTuple{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1234, DstPort: 80, Proto: 6}
	if ft.Hash(1) != ft.Hash(1) {
		t.Fatal("hash not deterministic")
	}
	if ft.Hash(1) == ft.Hash(2) {
		t.Fatal("hash ignores seed")
	}
}

func TestFiveTupleMemberStability(t *testing.T) {
	// All packets of a flow must pick the same member: intra-flow order
	// on egress fibers depends on it.
	ft := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	m := ft.Member(7, 64)
	for i := 0; i < 10; i++ {
		if ft.Member(7, 64) != m {
			t.Fatal("member selection unstable")
		}
	}
	if m < 0 || m >= 64 {
		t.Fatalf("member %d out of range", m)
	}
}

func TestFiveTupleMemberSpreads(t *testing.T) {
	// Distinct flows should spread across members roughly evenly.
	const n, members = 64000, 64
	counts := make([]int, members)
	rng := sim.NewRNG(11)
	for i := 0; i < n; i++ {
		ft := FiveTuple{
			SrcIP: uint32(rng.Uint64()), DstIP: uint32(rng.Uint64()),
			SrcPort: uint16(rng.Uint64()), DstPort: uint16(rng.Uint64()), Proto: 6,
		}
		counts[ft.Member(42, members)]++
	}
	want := n / members
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("member %d: count %d far from %d", i, c, want)
		}
	}
}

func TestFiveTupleString(t *testing.T) {
	ft := FiveTuple{SrcIP: 0x0a000001, DstIP: 0xc0a80101, SrcPort: 1234, DstPort: 80, Proto: 6}
	want := "10.0.0.1:1234>192.168.1.1:80/6"
	if got := ft.String(); got != want {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestBatcherSimpleFill(t *testing.T) {
	// Two 512 B packets exactly fill a 1024 B batch.
	b := NewBatcher(0, 3, 1024, idGen())
	p1 := &Packet{ID: 1, Size: 512, Output: 3}
	p2 := &Packet{ID: 2, Size: 512, Output: 3}
	if got := b.Add(p1); len(got) != 0 {
		t.Fatalf("premature batch: %v", got)
	}
	if b.QueuedBytes() != 512 {
		t.Fatalf("queued %d", b.QueuedBytes())
	}
	done := b.Add(p2)
	if len(done) != 1 {
		t.Fatalf("want 1 batch, got %d", len(done))
	}
	batch := done[0]
	if err := batch.Validate(); err != nil {
		t.Fatal(err)
	}
	if batch.DataBytes() != 1024 || batch.Pad != 0 {
		t.Fatalf("batch fill %d pad %d", batch.DataBytes(), batch.Pad)
	}
	if b.QueuedBytes() != 0 {
		t.Fatalf("queued after emit %d", b.QueuedBytes())
	}
}

func TestBatcherStraddle(t *testing.T) {
	// A 1500 B packet into 1024 B batches: completes the first batch
	// and leaves 476 B in the second.
	b := NewBatcher(0, 0, 1024, idGen())
	p := &Packet{ID: 1, Size: 1500, Output: 0}
	done := b.Add(p)
	if len(done) != 1 {
		t.Fatalf("want 1 completed batch, got %d", len(done))
	}
	if done[0].Frags[0].Off != 0 || done[0].Frags[0].Len != 1024 {
		t.Fatalf("first frag %+v", done[0].Frags[0])
	}
	if b.QueuedBytes() != 476 {
		t.Fatalf("queued %d want 476", b.QueuedBytes())
	}
	// Flush pads out the partial batch.
	fl := b.Flush()
	if fl == nil {
		t.Fatal("flush returned nil")
	}
	if err := fl.Validate(); err != nil {
		t.Fatal(err)
	}
	if fl.Pad != 1024-476 {
		t.Fatalf("pad %d", fl.Pad)
	}
	if fl.Frags[0].Off != 1024 || fl.Frags[0].Len != 476 {
		t.Fatalf("second frag %+v", fl.Frags[0])
	}
}

func TestBatcherJumboSpansManyBatches(t *testing.T) {
	b := NewBatcher(0, 0, 1024, idGen())
	p := &Packet{ID: 1, Size: 5000, Output: 0}
	done := b.Add(p)
	if len(done) != 4 { // 4*1024=4096 full, 904 left
		t.Fatalf("want 4 batches, got %d", len(done))
	}
	var off int32
	for _, batch := range done {
		if err := batch.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, f := range batch.Frags {
			if f.Off != off {
				t.Fatalf("fragment offset %d want %d", f.Off, off)
			}
			off += f.Len
		}
	}
	if b.QueuedBytes() != 5000-4096 {
		t.Fatalf("queued %d", b.QueuedBytes())
	}
}

func TestBatcherWrongOutputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBatcher(0, 1, 1024, idGen())
	b.Add(&Packet{ID: 1, Size: 64, Output: 2})
}

func TestBatcherFlushEmpty(t *testing.T) {
	b := NewBatcher(0, 0, 1024, idGen())
	if b.Flush() != nil {
		t.Fatal("flush of empty batcher returned a batch")
	}
}

func TestBatchSliceBytes(t *testing.T) {
	b := &Batch{Size: 4096}
	if got := b.SliceBytes(16); got != 256 {
		t.Fatalf("slice bytes %d want 256", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on indivisible slice count")
		}
	}()
	b.SliceBytes(5)
}

func TestUnbatcherReassembles(t *testing.T) {
	ids := idGen()
	b := NewBatcher(2, 0, 1024, ids)
	u := NewUnbatcher()
	var sent, recv []uint64
	var batches []*Batch
	rng := sim.NewRNG(3)
	for i := 0; i < 200; i++ {
		size := MinSize + rng.Intn(1500-MinSize)
		p := &Packet{ID: uint64(i + 1), Size: int32(size), Output: 0}
		sent = append(sent, p.ID)
		batches = append(batches, b.Add(p)...)
	}
	if fl := b.Flush(); fl != nil {
		batches = append(batches, fl)
	}
	for _, batch := range batches {
		done, err := u.Add(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range done {
			recv = append(recv, p.ID)
		}
	}
	if u.Pending() != 0 {
		t.Fatalf("pending %d after full drain", u.Pending())
	}
	if len(recv) != len(sent) {
		t.Fatalf("received %d of %d packets", len(recv), len(sent))
	}
	for i := range sent {
		if recv[i] != sent[i] {
			t.Fatalf("order violated at %d: got %d want %d", i, recv[i], sent[i])
		}
	}
}

func TestUnbatcherDetectsGap(t *testing.T) {
	u := NewUnbatcher()
	p := &Packet{ID: 1, Size: 2048, Output: 0}
	// Second half arrives without the first: must error.
	bad := &Batch{ID: 1, Size: 1024, Frags: []Frag{{Pkt: p, Off: 1024, Len: 1024}}}
	if _, err := u.Add(bad); err == nil {
		t.Fatal("gap not detected")
	}
}

func TestBatchConservationProperty(t *testing.T) {
	// Property: for any packet size sequence, total bytes in emitted
	// batches+flush equals total packet bytes plus pad, and reassembly
	// returns every packet exactly once, in order.
	if err := quick.Check(func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		ids := idGen()
		b := NewBatcher(0, 0, 512, ids)
		u := NewUnbatcher()
		n := 1 + rng.Intn(100)
		var total int
		for i := 0; i < n; i++ {
			size := 1 + rng.Intn(2000)
			total += size
			p := &Packet{ID: uint64(i + 1), Size: int32(size), Output: 0}
			for _, batch := range b.Add(p) {
				if batch.Validate() != nil {
					return false
				}
				if _, err := u.Add(batch); err != nil {
					return false
				}
			}
		}
		var pad int
		if fl := b.Flush(); fl != nil {
			pad = fl.Pad
			if fl.Validate() != nil {
				return false
			}
			if _, err := u.Add(fl); err != nil {
				return false
			}
		}
		// Conservation: batches carry exactly total bytes; the final
		// batch's pad fills the remainder.
		if (total+pad)%512 != 0 {
			return false
		}
		return u.Pending() == 0
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameAssembler(t *testing.T) {
	fa := NewFrameAssembler(5, 4, 1024)
	mkBatch := func(id uint64) *Batch {
		p := &Packet{ID: id, Size: 1024, Output: 5}
		return &Batch{ID: id, Output: 5, Size: 1024, Frags: []Frag{{Pkt: p, Off: 0, Len: 1024}}}
	}
	for i := uint64(1); i <= 3; i++ {
		if f := fa.Add(mkBatch(i)); f != nil {
			t.Fatal("premature frame")
		}
	}
	if fa.PendingBatches() != 3 || fa.PendingBytes() != 3*1024 {
		t.Fatalf("pending %d/%d", fa.PendingBatches(), fa.PendingBytes())
	}
	f := fa.Add(mkBatch(4))
	if f == nil {
		t.Fatal("frame not emitted at 4 batches")
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.Seq != 0 || f.Output != 5 || len(f.Batches) != 4 || f.Size != 4096 {
		t.Fatalf("frame %+v", f)
	}
	// Next frame gets seq 1.
	for i := uint64(5); i <= 8; i++ {
		if f2 := fa.Add(mkBatch(i)); f2 != nil && f2.Seq != 1 {
			t.Fatalf("seq %d want 1", f2.Seq)
		}
	}
}

func TestFrameAssemblerPad(t *testing.T) {
	fa := NewFrameAssembler(0, 8, 512)
	if fa.Pad() != nil {
		t.Fatal("padding an empty assembler produced a frame")
	}
	p := &Packet{ID: 1, Size: 512, Output: 0}
	fa.Add(&Batch{ID: 1, Output: 0, Size: 512, Frags: []Frag{{Pkt: p, Off: 0, Len: 512}}})
	f := fa.Pad()
	if f == nil {
		t.Fatal("pad returned nil with pending batch")
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.PadBatches != 7 || len(f.Batches) != 1 {
		t.Fatalf("pad frame %+v", f)
	}
	if f.DataBytes() != 512 {
		t.Fatalf("data bytes %d", f.DataBytes())
	}
	if f.PadBytes() != 7*512 {
		t.Fatalf("pad bytes %d", f.PadBytes())
	}
	if fa.PendingBatches() != 0 {
		t.Fatalf("pending %d after pad", fa.PendingBatches())
	}
	if fa.NextSeq() != 1 {
		t.Fatalf("next seq %d", fa.NextSeq())
	}
}

func TestFrameValidateRejectsWrongOutput(t *testing.T) {
	p := &Packet{ID: 1, Size: 512, Output: 1}
	f := &Frame{Output: 0, Size: 512, Batches: []*Batch{
		{Output: 1, Size: 512, Frags: []Frag{{Pkt: p, Off: 0, Len: 512}}},
	}}
	if f.Validate() == nil {
		t.Fatal("wrong-output batch accepted")
	}
}

func TestFrameSequenceNumbersAreConsecutive(t *testing.T) {
	// §3.2(4): the n-th frame of an output determines its bank group;
	// sequence numbers must be consecutive with no gaps even when
	// padded frames interleave with full ones.
	fa := NewFrameAssembler(0, 2, 512)
	mk := func(id uint64) *Batch {
		p := &Packet{ID: id, Size: 512, Output: 0}
		return &Batch{ID: id, Output: 0, Size: 512, Frags: []Frag{{Pkt: p, Off: 0, Len: 512}}}
	}
	var seqs []int64
	if f := fa.Add(mk(1)); f != nil {
		seqs = append(seqs, f.Seq)
	}
	if f := fa.Pad(); f != nil { // padded frame
		seqs = append(seqs, f.Seq)
	}
	fa.Add(mk(2))
	if f := fa.Add(mk(3)); f != nil { // full frame
		seqs = append(seqs, f.Seq)
	}
	for i, s := range seqs {
		if s != int64(i) {
			t.Fatalf("seqs %v not consecutive", seqs)
		}
	}
}
