package core

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/rng"
)

// TestConfigValidate pins the instance-independent validation surface.
// The capacity ⌊C·D⌋ must fit the int32 every server half holds it in,
// and C must be finite: Go's conversion of ±Inf or NaN to int depends
// on the platform.
func TestConfigValidate(t *testing.T) {
	good := Config{Variant: SAER, D: 2, C: 4, Seed: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Variant: Variant(9), D: 2, C: 4},
		{Variant: SAER, D: 0, C: 4},
		{Variant: SAER, D: -1, C: 4},
		{Variant: SAER, D: 2, C: 0},
		{Variant: SAER, D: 2, C: -1},
		{Variant: SAER, D: 2, C: 0.3}, // capacity floor(0.6) = 0
		{Variant: SAER, D: 1, C: 3e9}, // capacity above MaxInt32
		{Variant: SAER, D: 2, C: math.Inf(1)},
		{Variant: SAER, D: 2, C: math.Inf(-1)},
		{Variant: SAER, D: 2, C: math.NaN()},
		{Variant: SAER, D: 2, C: 4, MaxRounds: -1},
		{Variant: SAER, D: 2, C: 4, Workers: -1},
		{Variant: SAER, D: 2, C: 4, Shards: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	edge := Config{Variant: RAES, D: 1, C: math.MaxInt32}
	if err := edge.Validate(); err != nil {
		t.Errorf("capacity MaxInt32 rejected: %v", err)
	}
}

// TestResolveKnobsMatchesRunner pins the knob normalization: across the
// knob grid, a Runner runs with the configured worker count, its router
// never exceeds the shard target (the explicit count, or AutotuneShards
// when it is zero), and it holds one server shard per router shard.
func TestResolveKnobsMatchesRunner(t *testing.T) {
	g, err := gen.Regular(256, 8, rng.New(7))
	if err != nil {
		t.Fatalf("building graph: %v", err)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, shards := range []int{0, 1, 2, 8} {
			cfg := Config{Variant: SAER, D: 2, C: 4, Seed: 1, Workers: workers, Shards: shards}
			target := shards
			if target == 0 {
				target = AutotuneShards(g.NumClients(), g.NumServers(), workers, engine.DetectCache())
			}
			r, err := cfg.NewRunner(g)
			if err != nil {
				t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
			}
			if r.pool.Workers() != workers {
				t.Fatalf("workers=%d: runner has %d workers", workers, r.pool.Workers())
			}
			if r.router.Shards() > target {
				t.Fatalf("shards=%d: router has %d shards, target %d",
					shards, r.router.Shards(), target)
			}
			if len(r.servers) != r.router.Shards() {
				t.Fatalf("workers=%d shards=%d: %d server shards for the router's windows",
					workers, shards, len(r.servers))
			}
		}
	}
}
