package stats

import (
	"math/rand"
	"testing"
)

// mapTracker is the reference ReorderTracker must reproduce: the same
// algorithm over three lookups per packet into separate next-expected
// and pending maps.
type mapTracker struct {
	next                          map[uint64]int64
	pending                       map[uint64]map[int64]int
	held, peak, ooo, total, maxDp int64
}

func (r *mapTracker) Observe(pair uint64, seq int64, bytes int) {
	r.total++
	expected := r.next[pair]
	if seq == expected {
		expected++
		p := r.pending[pair]
		for {
			b, ok := p[expected]
			if !ok {
				break
			}
			delete(p, expected)
			r.held -= int64(b)
			expected++
		}
		r.next[pair] = expected
		return
	}
	if seq < expected {
		return
	}
	r.ooo++
	if d := seq - expected; d > r.maxDp {
		r.maxDp = d
	}
	p := r.pending[pair]
	if p == nil {
		p = make(map[int64]int)
		r.pending[pair] = p
	}
	if _, dup := p[seq]; !dup {
		p[seq] = bytes
		r.held += int64(bytes)
		if r.held > r.peak {
			r.peak = r.held
		}
	}
}

// Every counter must match the three-map tracker after every packet,
// over many pairs with reordering, duplicates and permanent gaps.
func TestReorderTrackerMatchesMaps(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pairs := 1 + rng.Intn(200)
		base := make([]int64, pairs)
		got := NewReorderTracker()
		want := &mapTracker{next: map[uint64]int64{}, pending: map[uint64]map[int64]int{}}
		for i := 0; i < 50000; i++ {
			k := rng.Intn(pairs)
			// Mostly near the pair's frontier: behind it is a
			// duplicate, ahead of it a gap or an overtaker. Skipped
			// sequences that are never sent stay held for good.
			seq := max(0, base[k]+int64(rng.Intn(12))-3)
			if rng.Intn(10) < 7 {
				base[k]++
			}
			pair := uint64(k)<<32 | uint64(k%7)
			size := 64 + rng.Intn(1437)
			got.Observe(pair, seq, size)
			want.Observe(pair, seq, size)
			if got.Total() != want.total || got.OutOfOrder() != want.ooo || got.HeldBytes() != want.held ||
				got.PeakBufferBytes() != want.peak || got.MaxDisplacement() != want.maxDp {
				t.Fatalf("seed %d packet %d: total/ooo/held/peak/disp %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d",
					seed, i, got.Total(), got.OutOfOrder(), got.HeldBytes(), got.PeakBufferBytes(), got.MaxDisplacement(),
					want.total, want.ooo, want.held, want.peak, want.maxDp)
			}
		}
		if want.ooo == 0 || want.held == 0 || want.total == want.ooo {
			t.Fatalf("seed %d: feed too tame (ooo %d, held %d)", seed, want.ooo, want.held)
		}
	}
}
