package core

import (
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/bipartite"
	"repro/internal/gen"
	"repro/internal/rng"
)

// equivalenceWorkerCounts are the worker counts the contract is checked
// against, per the determinism guarantee: results are independent of the
// worker count and the steal schedule.
func equivalenceWorkerCounts() []int {
	return []int{1, 2, 4, runtime.GOMAXPROCS(0)}
}

// equivalenceShardCounts decouple the shard sweep from the worker sweep:
// the round loop must produce bit-for-bit identical results for every
// shard count, including the autotuned one (0), one shard (which with one
// worker counts every round) and shard counts that differ from the
// worker count.
func equivalenceShardCounts() []int {
	return []int{0, 1, 2, 3, 8}
}

// oneShard returns cfg set to one worker and one shard, where every
// round counts into the one worker's byte tally. It is the reference
// every other configuration is compared against.
func oneShard(cfg Config) Config {
	cfg.Workers = 1
	cfg.Shards = 1
	return cfg
}

// runEquivalenceCase executes the same run under every (worker count,
// shard count) combination and fails the test unless all Results —
// including the PerRound series, load vectors and assignments — are
// bit-for-bit identical to the one-shard reference. The graphs are CSR,
// so every other combination routes.
func runEquivalenceCase(t *testing.T, name string, g *bipartite.Graph, cfg Config) {
	t.Helper()
	ref, err := oneShard(cfg).Run(g)
	if err != nil {
		t.Fatalf("%s: one-shard reference failed: %v", name, err)
	}
	for _, workers := range equivalenceWorkerCounts() {
		for _, shards := range equivalenceShardCounts() {
			c := cfg
			c.Workers = workers
			c.Shards = shards
			got, err := c.Run(g)
			if err != nil {
				t.Fatalf("%s workers=%d shards=%d: %v", name, workers, shards, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: workers=%d shards=%d diverges from the one-shard reference:\n  ref=%+v\n  got=%+v",
					name, workers, shards, ref, got)
			}
		}
	}
}

func TestDenseSparseEquivalence(t *testing.T) {
	n := 1024
	g := regularGraph(t, n, 40, 77)
	for _, variant := range []Variant{SAER, RAES} {
		// c=4: fast completion.
		// c=2: heavy burning, long tail of small-frontier rounds.
		for _, c := range []float64{4, 2} {
			runEquivalenceCase(t, variant.String(), g, Config{
				Variant: variant, D: 2, C: c, Seed: 0xFEED,
				TrackRounds: true, TrackNeighborhoods: true, TrackLoads: true, TrackAssignments: true,
			})
		}
	}
}

func TestDenseSparseEquivalenceIrregularGraph(t *testing.T) {
	g, err := gen.TrustSubset(768, 640, 48, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	runEquivalenceCase(t, "trust-subset", g, Config{Variant: SAER, D: 3, C: 2.5, Seed: 31,
		TrackRounds: true, TrackLoads: true, TrackAssignments: true})
}

func TestDenseSparseEquivalenceWithRequestCounts(t *testing.T) {
	// A mostly idle client population: only 1 in 8 clients holds balls, so
	// the frontier is small from the very first round.
	n := 1024
	g := regularGraph(t, n, 32, 12)
	counts := make([]int, n)
	src := rng.New(99)
	for v := range counts {
		if src.Intn(8) == 0 {
			counts[v] = 1 + src.Intn(2)
		}
	}
	runEquivalenceCase(t, "sparse-demand", g, Config{Variant: SAER, D: 2, C: 3, Seed: 7,
		RequestCounts: counts, TrackRounds: true, TrackLoads: true})
}

func TestDenseSparseEquivalenceWithInitialLoads(t *testing.T) {
	// The dynamic-scenario shape: servers start preloaded, some at or past
	// capacity (born burned).
	n := 512
	g := regularGraph(t, n, 30, 3)
	loads := make([]int, n)
	src := rng.New(4)
	for u := range loads {
		loads[u] = src.Intn(10) // capacity is 8, so some servers start burned
	}
	runEquivalenceCase(t, "initial-loads", g, Config{Variant: SAER, D: 2, C: 4, Seed: 13, MaxRounds: 300,
		InitialLoads: loads, TrackRounds: true, TrackLoads: true})
}

func TestDenseSparseEquivalenceStarved(t *testing.T) {
	// The starved-client early exit must fire identically on the counted
	// and the routed paths.
	b := bipartite.NewBuilder(2, 2)
	b.AddEdge(0, 0).AddEdge(1, 0)
	g, err := b.Build(bipartite.KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	runEquivalenceCase(t, "starved", g, Config{Variant: SAER, D: 2, C: 1, Seed: 1, MaxRounds: 50,
		TrackRounds: true})
}

// Property: on random small instances, the one-shard reference (its
// rounds counted into one byte tally) and the routed path (stamped
// sparse fold) agree for arbitrary seeds, variants, thresholds, worker
// and shard counts.
func TestQuickDenseSparseEquivalence(t *testing.T) {
	f := func(seed uint64, nRaw, cRaw, vRaw uint8) bool {
		n := 96 + int(nRaw%160)
		c := 1.5 + float64(cRaw%6)/2 // 1.5 .. 4.0
		variant := SAER
		if vRaw&1 == 1 {
			variant = RAES
		}
		g, err := gen.Regular(n, 16, rng.New(seed))
		if err != nil {
			return false
		}
		cfg := Config{Variant: variant, D: 2, C: c, Seed: seed ^ 0x5ca1ab1e, MaxRounds: 400,
			TrackRounds: true, TrackLoads: true}

		run := func(workers, shards int) *Result {
			c := cfg
			c.Workers = workers
			c.Shards = shards
			res, err := c.Run(g)
			if err != nil {
				return nil
			}
			return res
		}
		ref := run(1, 1)
		if ref == nil {
			return false
		}
		for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
			for _, shards := range []int{0, 3} {
				if got := run(workers, shards); got == nil || !reflect.DeepEqual(got, ref) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestRunnerReuseAfterStarvedRun is the regression test for the
// dirty-tally reuse bug: a run that exits through the starved-client break
// leaves the break round's counts in the tally, and resetState must clear
// them so that Reseed + Run on a reused Runner matches a fresh Runner
// exactly.
//
// The instance is chosen so the stale counts land on a server whose fate
// is seed-dependent: clients 0,1 see only server 0 (which always burns and
// starves them), client 2 sees servers {0,1}, client 3 sees only server 1.
// With capacity 3, server 1 burns in some runs (clients 2 and 3 collide)
// and survives in others — stale counts on it flip later runs' outcomes,
// which is exactly what the fix must prevent.
func TestRunnerReuseAfterStarvedRun(t *testing.T) {
	b := bipartite.NewBuilder(4, 2)
	b.AddEdge(0, 0).AddEdge(1, 0)
	b.AddEdge(2, 0).AddEdge(2, 1)
	b.AddEdge(3, 1)
	g, err := b.Build(bipartite.KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Variant: SAER, D: 2, C: 1.5, Seed: 0, MaxRounds: 50, TrackRounds: true, TrackLoads: true}
	r, err := cfg.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	// Sweep (dirtying seed, reseed seed) pairs: every starved first run
	// must leave the Runner indistinguishable from a fresh one.
	starved := 0
	for dirtySeed := uint64(0); dirtySeed < 8; dirtySeed++ {
		r.Reseed(dirtySeed)
		first := r.Run()
		if first.Completed {
			continue // only starved exits leave a dirty tally
		}
		starved++
		for reseed := uint64(100); reseed < 116; reseed++ {
			r.Reseed(reseed)
			reused := r.Run()
			c := cfg
			c.Seed = reseed
			fresh, err := c.Run(g)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reused, fresh) {
				t.Fatalf("dirty=%d reseed=%d: reused Runner after starved run diverges from fresh Runner:\n  fresh=%+v\n  reused=%+v",
					dirtySeed, reseed, fresh, reused)
			}
			// Re-dirty the runner for the next reseed comparison.
			r.Reseed(dirtySeed)
			r.Run()
		}
	}
	if starved == 0 {
		t.Fatal("setup broken: no seed produced a starved run")
	}
}

// TestOneShardCountsAtAnyServerCount pins that one worker asked for one
// shard gets one router shard and counts round 1 whether or not m is a
// power of two.
func TestOneShardCountsAtAnyServerCount(t *testing.T) {
	for _, m := range []int{260, 700, 1000} {
		g := regularGraph(t, m, 16, uint64(m))
		r, err := oneShard(Config{Variant: SAER, D: 2, C: 4}).NewRunner(g)
		if err != nil {
			t.Fatal(err)
		}
		if r.router.Shards() != 1 || !r.countsRound(int64(2*g.NumClients())) {
			t.Fatalf("m=%d: %d router shards, round 1 counted %t; want 1 shard, counted",
				m, r.router.Shards(), r.countsRound(int64(2*g.NumClients())))
		}
	}
}

// TestRunnerReuseAcrossEngineModes reseeds a Runner on each round path —
// one worker on one shard, which counts every round into its byte
// tally, and the routed stamped tally on one and on two workers —
// through enough trials that state left by earlier trials (byte counts,
// occupancy bits, survivor ranges) is exercised by later ones.
func TestRunnerReuseAcrossEngineModes(t *testing.T) {
	g := regularGraph(t, 512, 30, 9)
	for _, path := range []struct {
		name            string
		workers, shards int
		counts          bool
	}{{"one-shard", 1, 1, true}, {"routed", 1, 4, false}, {"routed-parallel", 2, 3, false}} {
		cfg := Config{Variant: SAER, D: 2, C: 3, Workers: path.workers, Shards: path.shards, TrackLoads: true}
		r, err := cfg.NewRunner(g)
		if err != nil {
			t.Fatal(err)
		}
		// Round 1 draws every ball; a late round, one.
		for _, balls := range []int64{int64(cfg.D * g.NumClients()), 1} {
			if got := r.countsRound(balls); got != path.counts {
				t.Fatalf("%s: a round of %d balls counted %t, want %t", path.name, balls, got, path.counts)
			}
		}
		for trial := 0; trial < 5; trial++ {
			seed := 0xA5A5 + uint64(trial)
			r.Reseed(seed)
			reused := r.Run()
			c := cfg
			c.Seed = seed
			fresh, err := c.Run(g)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reused, fresh) {
				t.Fatalf("%s trial=%d: reused Runner diverges from fresh Runner", path.name, trial)
			}
		}
	}
}
