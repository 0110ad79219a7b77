package baseline

import (
	"testing"

	"pbrouter/internal/packet"
	"pbrouter/internal/sim"
	"pbrouter/internal/traffic"
)

// TestCQLosslessUnderUniform checks a crosspoint-queued crossbar
// delivers everything under moderate uniform Poisson load: the
// per-crosspoint buffers only see 1/N of each output's load, so the
// default depth is ample.
func TestCQLosslessUnderUniform(t *testing.T) {
	const n = 8
	rate := sim.Rate(200e9)
	horizon := 50 * sim.Microsecond
	m := traffic.Uniform(n, 0.8)
	mux := traffic.NewMux(traffic.UniformSources(m, rate, traffic.Poisson, traffic.IMIX(), sim.NewRNG(1)))
	sw := NewCQSwitch(n, rate, 0)
	sw.SetHorizon(horizon)
	for {
		p, at := mux.Next()
		if p == nil || at > horizon {
			break
		}
		sw.Arrive(p)
	}
	sw.Finish()
	if sw.Dropped.Packets != 0 {
		t.Fatalf("uniform 0.8 load dropped %d packets", sw.Dropped.Packets)
	}
	if sw.Delivered.Packets != sw.Offered.Packets {
		t.Fatalf("delivered %d of %d offered", sw.Delivered.Packets, sw.Offered.Packets)
	}
	if sw.MaxHighWater() > 8*DefaultCrosspointBytes {
		t.Fatalf("implausible backlog %d bytes", sw.MaxHighWater())
	}
}

// TestCQDropsOnCrosspointOverrun checks the defining limitation: a
// line-rate burst from one input to one output overruns the single
// crosspoint buffer (the shared-memory switch would pool the burst).
func TestCQDropsOnCrosspointOverrun(t *testing.T) {
	rate := sim.Rate(200e9)
	sw := NewCQSwitch(2, rate, 16*1024)
	// Two inputs both blast output 0 back-to-back at line rate: the
	// output drains at 1x while 2x arrives, so crosspoints must fill.
	var at sim.Time
	tx := sim.TransferTime(1500*8, rate)
	var id uint64
	for i := 0; i < 200; i++ {
		at += tx
		for in := 0; in < 2; in++ {
			id++
			sw.Arrive(&packet.Packet{ID: id, Size: 1500, Input: int32(in), Output: 0, Arrival: at})
		}
	}
	sw.Finish()
	if sw.Dropped.Packets == 0 {
		t.Fatal("2x line-rate burst into 16KB crosspoints dropped nothing")
	}
	if sw.Delivered.Packets+sw.Dropped.Packets != sw.Offered.Packets {
		t.Fatalf("accounting leak: %d delivered + %d dropped != %d offered",
			sw.Delivered.Packets, sw.Dropped.Packets, sw.Offered.Packets)
	}
}

// TestMeshRunStreamMatchesRun checks the stream-driven mesh entry
// point reproduces Run exactly when fed the same mux.
func TestMeshRunStreamMatchesRun(t *testing.T) {
	rate := sim.Rate(200e9)
	horizon := 20 * sim.Microsecond
	m := traffic.Uniform(16, 0.5)

	ms1, err := NewMeshSim(4, rate)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ms1.Run(m, traffic.IMIX(), horizon, 7)
	if err != nil {
		t.Fatal(err)
	}

	ms2, err := NewMeshSim(4, rate)
	if err != nil {
		t.Fatal(err)
	}
	mux := traffic.NewMux(traffic.UniformSources(m, rate, traffic.Poisson, traffic.IMIX(), sim.NewRNG(7)))
	r2, err := ms2.RunStream(mux, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if *r1 != *r2 {
		t.Fatalf("RunStream diverged from Run:\n%+v\n%+v", r1, r2)
	}
}
