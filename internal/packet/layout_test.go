package packet

import (
	"testing"
	"unsafe"
)

// TestPacketLayout pins the one-cache-line rule (see Packet): a Packet
// is 64 B, a Frag 16 B, and every packet PacketPool hands out starts
// on a 64 B boundary, across several carved chunks and after
// recycling. A new field that grows either struct fails here.
func TestPacketLayout(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 64 {
		t.Errorf("Packet is %d B, want 64", got)
	}
	if got := unsafe.Sizeof(Frag{}); got != 16 {
		t.Errorf("Frag is %d B, want 16", got)
	}
	var pp PacketPool
	var live []*Packet
	for i := 0; i < 3*packetsPerChunk+1; i++ {
		live = append(live, pp.Get())
	}
	for _, p := range live[:100] {
		pp.Put(p)
	}
	for i := 0; i < 200; i++ {
		live = append(live, pp.Get())
	}
	for i, p := range live {
		if a := uintptr(unsafe.Pointer(p)); a%64 != 0 {
			t.Fatalf("pooled packet %d at %#x is not 64 B-aligned", i, a)
		}
	}
	if g := pp.Stats().Grows; g != 4 {
		t.Errorf("%d chunk carves for %d packets, want 4", g, 3*packetsPerChunk+1+100)
	}
}
