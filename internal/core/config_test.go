package core

import (
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
)

// TestConfigViewsMatchLegacyTriple pins the Config→(Params, Options)
// mapping: every field of the collapsed surface lands in exactly the
// legacy field the historical callers set directly.
func TestConfigViewsMatchLegacyTriple(t *testing.T) {
	cfg := Config{
		Variant: RAES, D: 3, C: 2.5, MaxRounds: 77, Seed: 42,
		Workers: 2, Shards: 4,
		TrackRounds: true, TrackNeighborhoods: true, TrackLoads: true, TrackAssignments: true,
		InitialLoads:  []int{1, 2},
		RequestCounts: []int{0, 1, 2},
	}
	p := cfg.Params()
	if p.D != 3 || p.C != 2.5 || p.MaxRounds != 77 || p.Seed != 42 || p.Workers != 2 {
		t.Fatalf("Params mapping broken: %+v", p)
	}
	o := cfg.Options()
	if o.Shards != 4 ||
		!o.TrackRounds || !o.TrackNeighborhoods || !o.TrackLoads || !o.TrackAssignments ||
		len(o.InitialLoads) != 2 || len(o.RequestCounts) != 3 {
		t.Fatalf("Options mapping broken: %+v", o)
	}
}

// TestConfigValidate pins the instance-independent validation surface.
func TestConfigValidate(t *testing.T) {
	good := NewConfig(SAER, 2, 4, 1)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Variant: Variant(9), D: 2, C: 4},
		{Variant: SAER, D: 0, C: 4},
		{Variant: SAER, D: 2, C: 0},
		{Variant: SAER, D: 2, C: 4, MaxRounds: -1},
		{Variant: SAER, D: 2, C: 4, Shards: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

// TestResolveKnobsMatchesRunner pins the normalization equivalence:
// across the knob grid, the knobs Config.ResolveKnobs reports are
// exactly what a Runner built from the same configuration runs with —
// its worker count, its router's shard count, and the one path
// selection they imply (one worker and one shard: the one-lane path).
func TestResolveKnobsMatchesRunner(t *testing.T) {
	g, err := gen.Regular(256, 8, rng.New(7))
	if err != nil {
		t.Fatalf("building graph: %v", err)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, shards := range []int{0, 1, 2, 8} {
			cfg := NewConfig(SAER, 2, 4, 1)
			cfg.Workers = workers
			cfg.Shards = shards
			want := cfg.ResolveKnobs(g)
			r, err := cfg.NewRunner(g)
			if err != nil {
				t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
			}
			if r.pool.Workers() != want.Workers {
				t.Fatalf("workers=%d: runner has %d workers, resolved %d",
					workers, r.pool.Workers(), want.Workers)
			}
			// The router never exceeds the resolved target, and it is
			// absent exactly on the one-lane path.
			wantOneLane := want.Workers == 1 && want.Shards == 1
			if wantOneLane != (r.router == nil) {
				t.Fatalf("workers=%d shards=%d: resolved %+v but router=%v",
					workers, shards, want, r.router != nil)
			}
			if r.router != nil && r.router.Shards() > want.Shards {
				t.Fatalf("shards=%d: router has %d shards, resolved target %d",
					shards, r.router.Shards(), want.Shards)
			}
			wantServers := 1
			if r.router != nil {
				wantServers = r.router.Shards()
			}
			if len(r.servers) != wantServers {
				t.Fatalf("workers=%d shards=%d: %d server shards for the router's windows",
					workers, shards, len(r.servers))
			}
		}
	}
}

// TestConfigRunMatchesLegacyRun pins behavioral equivalence end to end:
// a Config-driven run is bit-for-bit the run the legacy
// (variant, params, opts) call produces.
func TestConfigRunMatchesLegacyRun(t *testing.T) {
	g, err := gen.Regular(512, 6, rng.New(3))
	if err != nil {
		t.Fatalf("building graph: %v", err)
	}
	for _, variant := range []Variant{SAER, RAES} {
		cfg := NewConfig(variant, 2, 4, 99)
		cfg.TrackRounds = true
		cfg.TrackLoads = true
		got, err := cfg.Run(g)
		if err != nil {
			t.Fatalf("config run: %v", err)
		}
		want, err := Run(g, variant, Params{D: 2, C: 4, Seed: 99},
			Options{TrackRounds: true, TrackLoads: true})
		if err != nil {
			t.Fatalf("legacy run: %v", err)
		}
		if !reflect.DeepEqual(normalizedResult(got), normalizedResult(want)) {
			t.Fatalf("%v: config run diverged from legacy run:\n got: %+v\nwant: %+v", variant, got, want)
		}
	}
}
