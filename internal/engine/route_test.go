package engine

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestRouterGeometry(t *testing.T) {
	for _, target := range []int{1, 2, 3, 4, 7, 8, 16} {
		for _, size := range []int{1, 2, 7, 16, 100, 1000, 1 << 16, 1<<16 + 1} {
			rt := NewRouter(3, target, size)
			if size >= target {
				if rt.Shards() < target || rt.Shards() > 2*target {
					t.Fatalf("target=%d size=%d: %d shards outside [target, 2·target]",
						target, size, rt.Shards())
				}
			}
			// Every cell must map to a valid shard, and the mapping must be
			// contiguous and non-decreasing.
			last := 0
			for _, i := range []int32{0, int32(size / 2), int32(size - 1)} {
				s := rt.ShardOf(i)
				if s < 0 || s >= rt.Shards() {
					t.Fatalf("target=%d size=%d: cell %d maps to shard %d of %d",
						target, size, i, s, rt.Shards())
				}
				if s < last {
					t.Fatalf("target=%d size=%d: shard mapping not monotone", target, size)
				}
				last = s
			}
		}
	}
}

// stampedTally builds a stamped Tally of the given size, the mode
// FoldShard requires.
func stampedTally(size int) *Tally {
	ta := NewTally(NewPool(1), size)
	ta.BeginStamped()
	return ta
}

// TestRouterFoldMatchesDense drives random routed rounds through
// FoldShard on a stamped tally and checks counts and touched lists
// against a plain dense accumulation. Between rounds only StampedReset
// runs — the counts are never zeroed, which is exactly the stale-value
// situation the epoch stamps must mask.
func TestRouterFoldMatchesDense(t *testing.T) {
	const size = 500
	const workers = 3
	rt := NewRouter(workers, 4, size)
	ta := stampedTally(size)
	src := rng.New(7)
	for round := 0; round < 5; round++ {
		rt.ResetLanes()
		adds := make([]int32, 0, 300)
		for k := 0; k < 100+round*50; k++ {
			adds = append(adds, int32(src.Intn(size)))
		}
		for k, i := range adds {
			lanes := rt.Lanes(k % workers)
			s := int(i) >> rt.Shift()
			lanes[s] = append(lanes[s], i)
		}
		ref := denseReference(size, adds)
		var touchedTotal int
		for s := 0; s < rt.Shards(); s++ {
			touched := rt.FoldShard(s, ta)
			touchedTotal += len(touched)
			seen := make(map[int32]bool, len(touched))
			for _, i := range touched {
				if seen[i] {
					t.Fatalf("round %d shard %d: cell %d twice in touched", round, s, i)
				}
				seen[i] = true
				if rt.ShardOf(i) != s {
					t.Fatalf("round %d: cell %d in shard %d's touched list, owned by %d",
						round, i, s, rt.ShardOf(i))
				}
			}
		}
		distinct := 0
		for i := int32(0); i < size; i++ {
			if got := ta.ReceivedAt(i); got != ref[i] {
				t.Fatalf("round %d: ReceivedAt(%d) = %d, want %d", round, i, got, ref[i])
			}
			if ref[i] > 0 {
				distinct++
			}
		}
		if touchedTotal != distinct {
			t.Fatalf("round %d: %d touched cells, want %d", round, touchedTotal, distinct)
		}
		ta.StampedReset()
		for i := int32(0); i < size; i++ {
			if got := ta.ReceivedAt(i); got != 0 {
				t.Fatalf("round %d: ReceivedAt(%d) = %d after StampedReset", round, i, got)
			}
		}
	}
}

func TestRouterDiscard(t *testing.T) {
	rt := NewRouter(2, 2, 64)
	ta := stampedTally(64)
	lanes := rt.Lanes(0)
	for _, i := range []int32{1, 1, 40, 63} {
		lanes[rt.ShardOf(i)] = append(lanes[rt.ShardOf(i)], i)
	}
	for s := 0; s < rt.Shards(); s++ {
		rt.FoldShard(s, ta)
	}
	// Simulate the early-exit path: the tally is fully reset (an epoch
	// advance in stamped mode), the Router is discarded, and the next
	// round must start clean.
	ta.Reset()
	if !ta.IsStamped() {
		t.Fatal("Reset dropped stamped mode")
	}
	rt.Discard()
	rt.ResetLanes()
	for s := 0; s < rt.Shards(); s++ {
		if got := rt.FoldShard(s, ta); len(got) != 0 {
			t.Fatalf("shard %d folded %v after Discard", s, got)
		}
	}
	for i := int32(0); i < 64; i++ {
		if got := ta.ReceivedAt(i); got != 0 {
			t.Fatalf("ReceivedAt(%d) = %d after Discard + empty fold", i, got)
		}
	}
}

// Property: folded counts are independent of the worker count and the
// target shard count.
func TestQuickRouterInvariance(t *testing.T) {
	f := func(seed uint64, wRaw, tRaw, sizeRaw uint8) bool {
		workers := 1 + int(wRaw%6)
		target := 1 + int(tRaw%9)
		size := 16 + int(sizeRaw)
		rt := NewRouter(workers, target, size)
		ta := stampedTally(size)
		src := rng.New(seed)
		adds := make([]int32, src.Intn(4*size))
		for k := range adds {
			adds[k] = int32(src.Intn(size))
			lanes := rt.Lanes(k % workers)
			s := int(adds[k]) >> rt.Shift()
			lanes[s] = append(lanes[s], adds[k])
		}
		for s := 0; s < rt.Shards(); s++ {
			rt.FoldShard(s, ta)
		}
		ref := denseReference(size, adds)
		for i := range ref {
			if ta.ReceivedAt(int32(i)) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
