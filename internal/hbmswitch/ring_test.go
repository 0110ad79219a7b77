package hbmswitch

import (
	"testing"

	"pbrouter/internal/sim"
)

// oqMap is the reference the per-pair shadow rings replaced: one map
// from packet ID to the ideal-OQ departure, deleted on departure.
type oqMap map[uint64]sim.Time

func (m oqMap) push(id uint64, oq sim.Time) { m[id] = oq }

func (m oqMap) take(id uint64) (sim.Time, bool) {
	oq, ok := m[id]
	delete(m, id)
	return oq, ok
}

// TestOQRingMatchesMap drives per-pair rings (PushBack, takeOQ) and
// the map with the same randomized push/take sequences and requires
// the same (oq, ok) on every take: in-order takes (the fifo-order
// path), out-of-order takes, double takes, IDs never pushed, and
// pushes that grow a ring whose contents wrap around the end of its
// buffer.
func TestOQRingMatchesMap(t *testing.T) {
	const pairs = 3
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		rings := make([]ring[oqEntry], pairs)
		ref := oqMap{}
		var pushed [pairs][]uint64 // every ID ever pushed, per pair
		var nextID uint64
		check := func(op string, pair int, id uint64) {
			t.Helper()
			got, gotOK := takeOQ(&rings[pair], id)
			want, wantOK := ref.take(id)
			if got != want || gotOK != wantOK {
				t.Fatalf("seed %d: %s take(%d) on pair %d = (%v, %v), map says (%v, %v)",
					seed, op, id, pair, got, gotOK, want, wantOK)
			}
		}
		// Phases alternate push-heavy and take-heavy stretches, so the
		// rings fill, drain, wrap and grow with the head mid-buffer.
		for step := 0; step < 4000; step++ {
			pushBias := 6
			if step/250%2 == 1 {
				pushBias = 2
			}
			pair := rng.Intn(pairs)
			r := &rings[pair]
			switch op := rng.Intn(10); {
			case op < pushBias:
				nextID++
				oq := sim.Time(rng.Intn(1 << 20))
				r.PushBack(oqEntry{id: nextID, oq: oq})
				ref.push(nextID, oq)
				pushed[pair] = append(pushed[pair], nextID)
			case op < 7 && r.Len() > 0:
				check("front", pair, r.Front().id)
			case op < 9 && len(pushed[pair]) > 0:
				// Any ID this pair ever held: out of order while it is
				// queued, a double take once it has gone.
				check("any", pair, pushed[pair][rng.Intn(len(pushed[pair]))])
			default:
				check("unknown", pair, nextID+1+uint64(rng.Intn(100)))
			}
		}
		// Drain in a random order; afterwards every ring is empty.
		for pair := range rings {
			ids := pushed[pair]
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			for _, id := range ids {
				check("drain", pair, id)
			}
			if n := rings[pair].Len(); n != 0 {
				t.Fatalf("seed %d: pair %d holds %d entries after draining", seed, pair, n)
			}
		}
	}
}

// TestOQRingGrowsAcrossWrap grows a ring whose queued entries wrap the
// end of the buffer and checks FIFO order and values survive.
func TestOQRingGrowsAcrossWrap(t *testing.T) {
	var r ring[oqEntry]
	for id := uint64(1); id <= 8; id++ {
		r.PushBack(oqEntry{id: id, oq: sim.Time(10 * id)})
	}
	for id := uint64(1); id <= 5; id++ {
		if oq, ok := takeOQ(&r, id); !ok || oq != sim.Time(10*id) {
			t.Fatalf("take(%d) = (%v, %v)", id, oq, ok)
		}
	}
	for id := uint64(9); id <= 20; id++ { // 9..13 wrap to the start; 14 grows
		r.PushBack(oqEntry{id: id, oq: sim.Time(10 * id)})
	}
	if len(r.buf) != 16 || len(r.buf)&(len(r.buf)-1) != 0 {
		t.Fatalf("buffer length %d, want 16 (a power of two)", len(r.buf))
	}
	for id := uint64(6); id <= 20; id++ {
		if f := r.Front().id; f != id {
			t.Fatalf("front is %d, want %d", f, id)
		}
		if oq, ok := takeOQ(&r, id); !ok || oq != sim.Time(10*id) {
			t.Fatalf("take(%d) = (%v, %v)", id, oq, ok)
		}
	}
	if _, ok := takeOQ(&r, 20); ok {
		t.Fatal("double take succeeded")
	}
}
