// Package packet models the data units moved by the router simulators:
// variable-size packets identified by 5-tuples, the fixed-size 4 KB
// batches PFI assembles them into (packets may straddle batches), the
// per-module batch slices produced by the cyclical crossbar, and the
// per-output frames written to HBM. All pack/unpack operations are
// byte-accurate so that conservation invariants can be tested.
package packet

import (
	"fmt"

	"pbrouter/internal/sim"
)

// Packet is one variable-length packet traversing the router.
// Payload bytes are not materialized; only sizes and identities move
// through the simulators.
//
// Layout rule: a Packet is exactly 64 B, one cache line, and
// PacketPool carves it 64 B-aligned, so every pooled packet sits in one
// line (TestPacketLayout pins both). At the paper's 64 B worst case the
// simulators are bound by memory traffic on per-packet state, and an
// 80 B packet straddled two lines three times in four. The four
// fields bounded by the model are int32: Size by MaxSize, Input and
// Output by the port count, reasm by Size. Inputs that reach them from
// outside (trace files, record files, scenario specs) are range-checked
// where they enter. ID, the times and Seq stay 64-bit: one pair at 64 B
// line rate (2560 Gb/s) passes 2^31 packets in about 0.43 s of
// simulated time. A new field must keep the size at 64 B, or move the
// pool and this rule together.
type Packet struct {
	ID     uint64    // globally unique, assigned by the generator
	Flow   FiveTuple // used for egress ECMP/LAG hashing
	Size   int32     // bytes, header included
	Input  int32     // switch input port
	Output int32     // switch output port

	// reasm is the Unbatcher's reassembly progress (bytes received so
	// far). Keeping it on the packet instead of in a per-output map
	// removes a map operation per fragment from the egress hot path; a
	// packet passes through exactly one Unbatcher, so the field is
	// unambiguous. Zero both before first use and after completion.
	reasm int32

	Arrival sim.Time // arrival at the switch input
	Depart  sim.Time // departure of the packet's last byte (set at egress)
	Seq     int64    // per-(input,output) sequence number for order checks
}

// Pair returns the packet's flat (input, output) index Input*n+Output
// for an n-port switch, the index of every per-pair table.
func (p *Packet) Pair(n int) int { return int(p.Input)*n + int(p.Output) }

// MinSize and MaxSize bound valid packet sizes in bytes (Ethernet
// frame bounds, as used by the paper's 64 B worst case and 1500 B
// common case).
const (
	MinSize = 64
	MaxSize = 9216 // jumbo upper bound accepted by generators
)

// Validate reports whether the packet is well-formed.
func (p *Packet) Validate() error {
	if p.Size < 1 {
		return fmt.Errorf("packet %d: non-positive size %d", p.ID, p.Size)
	}
	if p.Input < 0 || p.Output < 0 {
		return fmt.Errorf("packet %d: negative port (%d,%d)", p.ID, p.Input, p.Output)
	}
	return nil
}

// Latency returns the packet's switch transit time. It panics if the
// packet has not departed, which indicates a measurement bug.
func (p *Packet) Latency() sim.Time {
	if p.Depart < p.Arrival {
		panic(fmt.Sprintf("packet %d: departure %v before arrival %v", p.ID, p.Depart, p.Arrival))
	}
	return p.Depart - p.Arrival
}
