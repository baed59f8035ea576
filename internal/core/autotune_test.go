package core

import (
	"reflect"
	"testing"

	"repro/internal/engine"
)

// TestAutotuneDeterminism pins AutotuneShards as a pure function of
// (n, m, workers, probe): the golden table below is computed with a
// fixed probe, so it holds on every machine, and a repeated call must
// return the identical count. The exact values are part of the contract
// deliberately — a heuristic change must show up as a diff here (and in
// PERFORMANCE.md's crossover tables), never as a silent behavior shift.
func TestAutotuneDeterminism(t *testing.T) {
	cache := engine.CacheInfo{L2: 2 << 20, LLC: 8 << 20}
	cases := []struct {
		name       string
		n, m       int
		workers    int
		wantShards int
	}{
		// Quick-mode instance: tally far below L2, single worker — one
		// shard, where every round counts.
		{"quick", 2048, 2048, 1, 1},
		{"mid-single-worker", 1 << 16, 1 << 16, 1, 1},
		// Tally exactly at the L2 boundary (2¹⁸ cells × 8 B = 2 MiB):
		// sharding on one worker is not yet worth it.
		{"l2-boundary", 1 << 18, 1 << 18, 1, 1},
		// Tally past L2: single-worker runs shard for cache blocking
		// (window = L2/2 = 2¹⁷ cells).
		{"past-l2-2^20", 1 << 20, 1 << 20, 1, 8},
		{"past-l2-2^22", 1 << 22, 1 << 22, 1, 32},
		// Multi-worker runs always shard at least as finely as the worker
		// count (phase-2 parallelism)…
		{"parallel-small", 1 << 16, 1 << 16, 4, 4},
		// …and at least as finely as the cache asks when m outgrows it.
		{"parallel-large", 1 << 22, 1 << 22, 4, 32},
		// Tiny n with a large server side: the shard count is capped so
		// each shard still amortizes its fold.
		{"tiny-n-cap", 1024, 1 << 20, 1, 4},
	}
	for _, tc := range cases {
		got := AutotuneShards(tc.n, tc.m, tc.workers, cache)
		if got != tc.wantShards {
			t.Errorf("%s: AutotuneShards(n=%d, m=%d, workers=%d) = %d, want %d",
				tc.name, tc.n, tc.m, tc.workers, got, tc.wantShards)
		}
		if again := AutotuneShards(tc.n, tc.m, tc.workers, cache); again != got {
			t.Errorf("%s: AutotuneShards is not deterministic: %d then %d", tc.name, got, again)
		}
	}
	// A degenerate probe must fall back to the conservative default
	// instead of dividing by zero or disabling sharding.
	if got := AutotuneShards(1<<20, 1<<20, 1, engine.CacheInfo{}); got < 2 {
		t.Errorf("zero probe: expected sharding at m=2^20, got %d", got)
	}
}

// TestAutotuneKnobsAreResultNeutral runs the same instance with the
// autotuned shard count and with adversarial explicit ones, expecting
// bit-for-bit identical results — the tuner may only move wall-clock.
func TestAutotuneKnobsAreResultNeutral(t *testing.T) {
	g := regularGraph(t, 1024, 36, 17)
	cfg := Config{Variant: SAER, D: 2, C: 2.5, Seed: 0xAB, Shards: 1, TrackRounds: true, TrackLoads: true}
	ref, err := cfg.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 5, 16} {
		for _, workers := range []int{1, 2} {
			c := cfg
			c.Workers = workers
			c.Shards = shards
			got, err := c.Run(g)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("shards=%d workers=%d: result differs from the one-shard reference", shards, workers)
			}
		}
	}
}

// TestDirectCountRule pins directCount, the choice between counting a
// round's balls into per-worker byte tallies and routing them, as a
// pure function of (workers, shards, balls, m, draw kind, probe): the
// table is computed with a fixed 2 MiB L2 probe, so it holds on every
// machine, and a repeated call must return the same answer.
func TestDirectCountRule(t *testing.T) {
	cache := engine.CacheInfo{L2: 2 << 20, LLC: 8 << 20}
	cases := []struct {
		name       string
		workers    int
		shards     int
		balls      int64
		m          int
		pointQuery bool
		want       bool
	}{
		// pq-dense round 1: 2 workers, n = m = 2²⁰, d = 2, point queries.
		{"pq-dense", 2, 2, 2 << 20, 1 << 20, true, true},
		{"wire-loopback", 2, 2, 2 << 16, 1 << 16, true, true},
		{"four-workers", 4, 4, 2 << 20, 1 << 20, true, true},
		// One worker on one shard counts every round, whatever the ball
		// count, the draw or m.
		{"one-worker", 1, 1, 2 << 20, 1 << 20, true, true},
		{"one-worker-rows", 1, 1, 2 << 20, 1 << 20, false, true},
		{"one-worker-late-round", 1, 1, 1, 1 << 20, true, true},
		{"one-worker-late-rows", 1, 1, 1, 1 << 20, false, true},
		{"one-worker-past-cutoff", 1, 1, 2 << 23, 1 << 23, true, true},
		// One worker on more shards routes.
		{"one-worker-two-shards", 1, 2, 2 << 20, 1 << 20, true, false},
		{"one-worker-two-shards-rows", 1, 2, 2 << 20, 1 << 20, false, false},
		// Row and CSR draws keep routing.
		{"row-draw", 2, 2, 2 << 20, 1 << 20, false, false},
		// The tallies must stay cache-resident: m at the cutoff counts,
		// past it routes.
		{"at-l2", 2, 2, 2 << 21, 1 << 21, true, true},
		{"at-cutoff", 2, 2, 2 << 22, 1 << 22, true, true},
		{"past-cutoff", 2, 2, 2 << 23, 1 << 23, true, false},
		{"n=2^24", 2, 2, 2 << 24, 1 << 24, true, false},
		// workers·m ≤ 4·balls: a round with few balls left routes.
		{"late-round", 2, 2, 1 << 18, 1 << 20, true, false},
		{"late-round-edge", 2, 2, 1 << 19, 1 << 20, true, true},
		{"late-round-edge+1", 3, 3, 1 << 19, 1 << 20, true, false},
		// More workers than a 16-bit lane sum can serve.
		{"too-many-workers", engine.MaxByteTallyWorkers + 1, engine.MaxByteTallyWorkers + 1, 2 << 20, 1 << 10, true, false},
	}
	for _, tc := range cases {
		got := directCount(tc.workers, tc.shards, tc.balls, tc.m, tc.pointQuery, cache)
		if got != tc.want {
			t.Errorf("%s: directCount(workers=%d, shards=%d, balls=%d, m=%d, pq=%t) = %t, want %t",
				tc.name, tc.workers, tc.shards, tc.balls, tc.m, tc.pointQuery, got, tc.want)
		}
		if again := directCount(tc.workers, tc.shards, tc.balls, tc.m, tc.pointQuery, cache); again != got {
			t.Errorf("%s: directCount is not deterministic", tc.name)
		}
	}
	// A degenerate probe falls back to the conservative 256 KiB L2.
	if !directCount(2, 2, 2<<19, 1<<19, true, engine.CacheInfo{}) || directCount(2, 2, 2<<20, 1<<20, true, engine.CacheInfo{}) {
		t.Error("zero probe: want counting at m = 2^19 and routing at m = 2^20")
	}
}
