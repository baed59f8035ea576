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
		// shard, the one-lane path.
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
