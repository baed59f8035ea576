package core

import (
	"reflect"
	"testing"

	"repro/internal/bipartite"
)

// TestOptionsValidation checks that NewRunner rejects negative
// performance knobs and accepts the shard counts the equivalence suites
// sweep.
func TestOptionsValidation(t *testing.T) {
	g := regularGraph(t, 64, 8, 1)
	cfg := Config{Variant: SAER, D: 2, C: 4, Seed: 1}
	for _, bad := range []Config{{Shards: -1}, {Workers: -1}} {
		c := cfg
		c.Shards, c.Workers = bad.Shards, bad.Workers
		if _, err := c.NewRunner(g); err == nil {
			t.Errorf("negative knob accepted: Shards=%d Workers=%d", c.Shards, c.Workers)
		}
	}
	for _, shards := range []int{0, 1, 8} {
		c := cfg
		c.Shards = shards
		if _, err := c.NewRunner(g); err != nil {
			t.Errorf("valid Shards=%d rejected: %v", shards, err)
		}
	}
}

// TestShardedRunnerReuseAfterStarvedRun is the sharded counterpart of
// TestRunnerReuseAfterStarvedRun: a starved early exit abandons the round
// between the phase-B fold and the round-end reset, leaving the router's
// touched lists and the folded counts dirty; resetState must discard both
// so a reused Runner matches a fresh one.
func TestShardedRunnerReuseAfterStarvedRun(t *testing.T) {
	b := bipartite.NewBuilder(4, 2)
	b.AddEdge(0, 0).AddEdge(1, 0)
	b.AddEdge(2, 0).AddEdge(2, 1)
	b.AddEdge(3, 1)
	g, err := b.Build(bipartite.KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Variant: SAER, D: 2, C: 1.5, Seed: 0, MaxRounds: 50, Workers: 2,
		TrackRounds: true, TrackLoads: true, Shards: 2}
	r, err := cfg.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	starved := 0
	for dirtySeed := uint64(0); dirtySeed < 8; dirtySeed++ {
		r.Reseed(dirtySeed)
		if r.Run().Completed {
			continue
		}
		starved++
		for reseed := uint64(100); reseed < 108; reseed++ {
			r.Reseed(reseed)
			reused := r.Run()
			c := cfg
			c.Seed = reseed
			fresh, err := c.Run(g)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reused, fresh) {
				t.Fatalf("dirty=%d reseed=%d: reused sharded Runner diverges from fresh Runner",
					dirtySeed, reseed)
			}
			r.Reseed(dirtySeed)
			r.Run()
		}
	}
	if starved == 0 {
		t.Fatal("setup broken: no seed produced a starved run")
	}
}
