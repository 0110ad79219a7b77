package packet

import (
	"testing"
)

// FuzzBatcherUnbatcher drives the batch/unbatch pipeline with
// arbitrary packet size sequences (each input byte is a size seed) and
// checks the conservation invariants: every batch validates, every
// packet reassembles exactly once in order, and no bytes appear or
// vanish.
func FuzzBatcherUnbatcher(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{255, 0, 128, 7})
	f.Add([]byte{})
	f.Add([]byte{64, 64, 64, 64, 64, 64, 64, 64})
	f.Fuzz(func(t *testing.T, sizes []byte) {
		var id uint64
		b := NewBatcher(0, 0, 512, func() uint64 { id++; return id })
		u := NewUnbatcher()
		var total, recovered int64
		var emitted []uint64
		feed := func(batch *Batch) {
			if err := batch.Validate(); err != nil {
				t.Fatal(err)
			}
			done, err := u.Add(batch)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range done {
				recovered += int64(p.Size)
				emitted = append(emitted, p.ID)
			}
		}
		for i, s := range sizes {
			size := int(s)*13 + 1 // 1..3316 bytes, crossing batch bounds
			total += int64(size)
			p := &Packet{ID: uint64(i + 1), Size: int32(size), Output: 0}
			for _, batch := range b.Add(p) {
				feed(batch)
			}
		}
		if fl := b.Flush(); fl != nil {
			feed(fl)
		}
		if u.Pending() != 0 {
			t.Fatalf("%d packets stuck in reassembly", u.Pending())
		}
		if recovered != total {
			t.Fatalf("recovered %d of %d bytes", recovered, total)
		}
		for i, got := range emitted {
			if got != uint64(i+1) {
				t.Fatalf("packet order broken at %d: %d", i, got)
			}
		}
	})
}

// FuzzFrameAssembler interleaves batch adds and pads and checks frame
// sequence numbers stay gap-free and every frame validates.
func FuzzFrameAssembler(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1})
	f.Add([]byte{1, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		fa := NewFrameAssembler(0, 4, 256)
		var id uint64
		var wantSeq int64
		check := func(fr *Frame) {
			if fr == nil {
				return
			}
			if err := fr.Validate(); err != nil {
				t.Fatal(err)
			}
			if fr.Seq != wantSeq {
				t.Fatalf("frame seq %d want %d", fr.Seq, wantSeq)
			}
			wantSeq++
		}
		for _, op := range ops {
			if op%2 == 0 {
				id++
				p := &Packet{ID: id, Size: 256, Output: 0}
				check(fa.Add(&Batch{ID: id, Output: 0, Size: 256,
					Frags: []Frag{{Pkt: p, Off: 0, Len: 256}}}))
			} else {
				check(fa.Pad())
			}
		}
	})
}
