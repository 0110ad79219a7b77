package traffic

import (
	"bytes"
	"encoding/binary"
	"testing"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
)

func TestTraceRoundTrip(t *testing.T) {
	rng := sim.NewRNG(9)
	srcs := UniformSources(Uniform(4, 0.6), 100*sim.Gbps, Poisson, IMIX(), rng)
	orig := NewMux(srcs).Window(20 * sim.Microsecond)

	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range orig {
		if err := tw.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	n, err := tw.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(orig)) {
		t.Fatalf("wrote %d of %d", n, len(orig))
	}

	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Header().N != 4 {
		t.Fatalf("header N %d", tr.Header().N)
	}
	for i, want := range orig {
		got, ok, err := tr.Next()
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if got.Arrival != want.Arrival || got.Size != want.Size ||
			got.Input != want.Input || got.Output != want.Output ||
			got.Flow != want.Flow || got.Seq != want.Seq {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got, want)
		}
	}
	if _, ok, err := tr.Next(); ok || err != nil {
		t.Fatalf("expected clean EOF, got ok=%v err=%v", ok, err)
	}
}

func TestTraceWriterRejectsDisorder(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 2)
	tw.Add(&packet.Packet{Arrival: 100, Size: 64, Input: 0, Output: 1})
	if err := tw.Add(&packet.Packet{Arrival: 50, Size: 64, Input: 0, Output: 1}); err == nil {
		t.Fatal("out-of-order arrival accepted")
	}
	if err := tw.Add(&packet.Packet{Arrival: 200, Size: 64, Input: 5, Output: 0}); err == nil {
		t.Fatal("out-of-range port accepted")
	}
}

func TestTraceReaderRejectsGarbage(t *testing.T) {
	if _, err := NewTraceReader(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Fatal("garbage header accepted")
	}
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 2)
	tw.Finish()
	raw := buf.Bytes()
	raw[4] = 99 // corrupt version
	if _, err := NewTraceReader(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad version accepted")
	}
}

// TestTraceReaderRejectsOversize checks the reader bounds a record's
// 32-bit size by packet.MaxSize before narrowing it into Packet.Size:
// a size of 2^31 or more would otherwise wrap negative.
func TestTraceReaderRejectsOversize(t *testing.T) {
	for _, tc := range []struct {
		size uint32
		ok   bool
	}{
		{packet.MaxSize, true},
		{packet.MaxSize + 1, false},
		{1 << 31, false},
		{1<<32 - 1, false},
		{0, false},
	} {
		var buf bytes.Buffer
		tw, _ := NewTraceWriter(&buf, 2)
		tw.Add(&packet.Packet{Arrival: 100, Size: 64, Input: 0, Output: 1})
		tw.Finish()
		raw := buf.Bytes()
		binary.LittleEndian.PutUint32(raw[16+8:], tc.size) // first record's size
		tr, err := NewTraceReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		p, ok, err := tr.Next()
		if tc.ok {
			if err != nil || !ok || int64(p.Size) != int64(tc.size) {
				t.Errorf("size %d: got %v ok=%v err=%v, want it accepted", tc.size, p, ok, err)
			}
		} else if err == nil || ok {
			t.Errorf("size %d accepted (ok=%v)", tc.size, ok)
		}
	}
}

// TestTraceReaderRejectsPortsBeyondHeader checks a record naming a
// port at or past the header's port count is an error, not a packet
// that indexes past every per-port table (ScanTrace used to panic).
func TestTraceReaderRejectsPortsBeyondHeader(t *testing.T) {
	for _, off := range []int{12, 14} { // input, output
		var buf bytes.Buffer
		tw, _ := NewTraceWriter(&buf, 2)
		tw.Add(&packet.Packet{Arrival: 100, Size: 64, Input: 0, Output: 1})
		tw.Finish()
		raw := buf.Bytes()
		binary.LittleEndian.PutUint16(raw[16+off:], 2)
		tr, err := NewTraceReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := tr.Next(); err == nil || ok {
			t.Errorf("port 2 at record offset %d accepted in a 2-port trace", off)
		}
		if _, err := ScanTrace(bytes.NewReader(raw)); err == nil {
			t.Errorf("ScanTrace accepted port 2 at record offset %d in a 2-port trace", off)
		}
	}
}

func TestScanTrace(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 2)
	tw.Add(&packet.Packet{Arrival: 1000, Size: 64, Input: 0, Output: 1})
	tw.Add(&packet.Packet{Arrival: 2000, Size: 1500, Input: 1, Output: 0})
	tw.Finish()
	st, err := ScanTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != 2 || st.Bytes != 1564 {
		t.Fatalf("stats %+v", st)
	}
	if st.MinSize != 64 || st.MaxSize != 1500 {
		t.Fatalf("sizes %d..%d", st.MinSize, st.MaxSize)
	}
	if st.Duration() != 1000 {
		t.Fatalf("duration %v", st.Duration())
	}
	if st.PerInput[0] != 64 || st.PerOutput[0] != 1500 {
		t.Fatalf("per-port bytes %v %v", st.PerInput, st.PerOutput)
	}
}

func TestTraceSeqsAssignedOnReplay(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf, 2)
	for i := 0; i < 5; i++ {
		tw.Add(&packet.Packet{Arrival: sim.Time(i * 1000), Size: 64, Input: 0, Output: 1})
	}
	tw.Finish()
	tr, _ := NewTraceReader(&buf)
	for want := int64(0); ; want++ {
		p, ok, err := tr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if p.Seq != want {
			t.Fatalf("seq %d want %d", p.Seq, want)
		}
	}
}
