package engine

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// denseReference accumulates the same add sequence into a plain slice.
func denseReference(size int, adds []int32) []int32 {
	ref := make([]int32, size)
	for _, i := range adds {
		ref[i]++
	}
	return ref
}

// routeAdds buckets every add into the lane of the worker chosen by
// worker(k) and folds every shard, returning the touched lists' union in
// shard order — one routed round of the two-level sparse accumulator
// (per-(worker, shard) lanes below, the stamped tally above).
func routeAdds(rt *Router, ta *Tally, adds []int32, worker func(k int) int) []int32 {
	rt.ResetLanes()
	for k, i := range adds {
		lanes := rt.Lanes(worker(k))
		s := rt.ShardOf(i)
		lanes[s] = append(lanes[s], i)
	}
	var touched []int32
	for s := 0; s < rt.Shards(); s++ {
		touched = append(touched, rt.FoldShard(s, ta)...)
	}
	return touched
}

// TestSparseTallyMatchesDense drives sparse rounds — a small random
// subset of cells touched with repeats, spread over four workers' lanes —
// through the stamped accumulator, resetting only the occupancy bitmap
// between rounds, and checks every cell and the touched list against a
// dense reference: stale counts from earlier rounds must never leak.
func TestSparseTallyMatchesDense(t *testing.T) {
	const size = 1000
	const workers = 4
	rt := NewRouter(workers, workers, size)
	ta := stampedTally(size)
	src := rng.New(42)
	for round := 0; round < 5; round++ {
		adds := make([]int32, 0, 64)
		for k := 0; k < 64; k++ {
			adds = append(adds, int32(src.Intn(size/10)))
		}
		touched := routeAdds(rt, ta, adds, func(k int) int { return k % workers })
		ref := denseReference(size, adds)

		seen := make(map[int32]bool, len(touched))
		for _, i := range touched {
			if seen[i] {
				t.Fatalf("round %d: cell %d appears twice in the touched list", round, i)
			}
			seen[i] = true
		}
		for i := int32(0); i < size; i++ {
			if got := ta.ReceivedAt(i); got != ref[i] {
				t.Fatalf("round %d: ReceivedAt(%d) = %d, want %d", round, i, got, ref[i])
			}
			if ref[i] > 0 && !seen[i] {
				t.Fatalf("round %d: cell %d has count %d but is missing from touched", round, i, ref[i])
			}
			if ref[i] == 0 && seen[i] {
				t.Fatalf("round %d: untouched cell %d is in the touched list", round, i)
			}
		}
		ta.StampedReset()
	}
}

// TestSparseTallyResetIsCheapAndComplete checks that clearing the
// occupancy bitmap alone invalidates a round: after StampedReset every
// cell reads zero although no count was zeroed, folding empty lanes
// touches nothing, and the next fold starts clean — counts restart from
// zero and a shard that received no lanes lists nothing, whatever stale
// counts it holds. The benchmark's round replay resets this way.
func TestSparseTallyResetIsCheapAndComplete(t *testing.T) {
	rt := NewRouter(2, 2, 100)
	ta := stampedTally(100)
	touched := routeAdds(rt, ta, []int32{7, 7, 9}, func(k int) int { return k % 2 })
	if len(touched) != 2 {
		t.Fatalf("touched = %v, want 2 distinct cells", touched)
	}
	if ta.ReceivedAt(7) != 2 || ta.ReceivedAt(9) != 1 {
		t.Fatalf("folded counts wrong: %d, %d", ta.ReceivedAt(7), ta.ReceivedAt(9))
	}
	ta.StampedReset()
	if ta.Merged()[7] != 2 {
		t.Fatal("StampedReset wrote the counts array; it must only clear the occupancy bitmap")
	}
	for i := int32(0); i < 100; i++ {
		if ta.ReceivedAt(i) != 0 {
			t.Fatalf("ReceivedAt(%d) = %d after StampedReset", i, ta.ReceivedAt(i))
		}
	}
	if got := routeAdds(rt, ta, nil, nil); len(got) != 0 {
		t.Fatalf("empty round after reset touched %v", got)
	}
	// Shards are [0, 64) and [64, 100). Only shard 1 receives lanes now;
	// shard 0 holds stale counts and must list nothing.
	alternate := func(k int) int { return k % 2 }
	if got := routeAdds(rt, ta, []int32{99, 70, 70}, alternate); !slices.Equal(got, []int32{70, 99}) {
		t.Fatalf("shard-1-only round touched %v, want [70 99]", got)
	}
	if ta.ReceivedAt(7) != 0 || ta.ReceivedAt(70) != 2 || ta.ReceivedAt(99) != 1 {
		t.Fatalf("shard-1-only round counted %d, %d, %d", ta.ReceivedAt(7), ta.ReceivedAt(70), ta.ReceivedAt(99))
	}
	ta.StampedReset()
	if got := routeAdds(rt, ta, []int32{7}, alternate); !slices.Equal(got, []int32{7}) || ta.ReceivedAt(7) != 1 {
		t.Fatalf("refold of stale cell 7 touched %v with count %d, want [7] with 1", got, ta.ReceivedAt(7))
	}
	if ta.ReceivedAt(70) != 0 {
		t.Fatalf("ReceivedAt(70) = %d in a round that did not touch it", ta.ReceivedAt(70))
	}
}

// Property: for random add sequences, random lane assignment and worker
// counts, over several reset rounds, the stamped accumulator's counts
// equal the dense reference.
func TestQuickSparseTallyEquivalence(t *testing.T) {
	f := func(seed uint64, wRaw, sizeRaw uint8) bool {
		workers := 1 + int(wRaw%8)
		size := 16 + int(sizeRaw)
		rt := NewRouter(workers, workers, size)
		ta := stampedTally(size)
		src := rng.New(seed)
		for round := 0; round < 3; round++ {
			adds := make([]int32, src.Intn(3*size))
			lanes := make([]int, len(adds))
			for k := range adds {
				adds[k] = int32(src.Intn(size))
				lanes[k] = src.Intn(workers)
			}
			routeAdds(rt, ta, adds, func(k int) int { return lanes[k] })
			ref := denseReference(size, adds)
			for i := int32(0); i < int32(size); i++ {
				if ta.ReceivedAt(i) != ref[i] {
					return false
				}
			}
			ta.StampedReset()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
