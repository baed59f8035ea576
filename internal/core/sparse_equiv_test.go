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
// worker is the one-lane path) and shard counts that differ from the
// worker count.
func equivalenceShardCounts() []int {
	return []int{0, 1, 2, 3, 8}
}

// normalizedResult strips the fields that legitimately differ between
// configurations (only Params.Workers — a config echo, not an outcome) so
// the rest can be compared with reflect.DeepEqual.
func normalizedResult(res *Result) *Result {
	c := *res
	c.Params.Workers = 0
	return &c
}

// oneLane returns p and opts set for the one-lane path: one worker and
// one shard, counting into a plain tally and scanning the servers. It is
// the reference every routed configuration is compared against.
func oneLane(p Params, opts Options) (Params, Options) {
	p.Workers = 1
	opts.Shards = 1
	return p, opts
}

// runEquivalenceCase executes the same run under every (worker count,
// shard count) combination and fails the test unless all Results —
// including the PerRound series, load vectors and assignments — are
// bit-for-bit identical to the one-lane reference (the plain tally with
// a server scan); every other combination walks the routed stamped
// pipeline.
func runEquivalenceCase(t *testing.T, name string, g *bipartite.Graph, variant Variant, p Params, opts Options) {
	t.Helper()
	rp, ro := oneLane(p, opts)
	res, err := Run(g, variant, rp, ro)
	if err != nil {
		t.Fatalf("%s: one-lane reference failed: %v", name, err)
	}
	ref := normalizedResult(res)
	for _, workers := range equivalenceWorkerCounts() {
		for _, shards := range equivalenceShardCounts() {
			pp := p
			pp.Workers = workers
			oo := opts
			oo.Shards = shards
			res, err := Run(g, variant, pp, oo)
			if err != nil {
				t.Fatalf("%s workers=%d shards=%d: %v", name, workers, shards, err)
			}
			if got := normalizedResult(res); !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: workers=%d shards=%d diverges from the one-lane reference:\n  ref=%+v\n  got=%+v",
					name, workers, shards, ref, got)
			}
		}
	}
}

func TestDenseSparseEquivalence(t *testing.T) {
	fullTracking := Options{
		TrackRounds:        true,
		TrackNeighborhoods: true,
		TrackLoads:         true,
		TrackAssignments:   true,
	}
	n := 1024
	g := regularGraph(t, n, 40, 77)
	for _, variant := range []Variant{SAER, RAES} {
		// c=4: fast completion.
		// c=2: heavy burning, long tail of small-frontier rounds.
		for _, c := range []float64{4, 2} {
			runEquivalenceCase(t, variant.String(), g, variant,
				Params{D: 2, C: c, Seed: 0xFEED}, fullTracking)
		}
	}
}

func TestDenseSparseEquivalenceIrregularGraph(t *testing.T) {
	g, err := gen.TrustSubset(768, 640, 48, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	runEquivalenceCase(t, "trust-subset", g, SAER,
		Params{D: 3, C: 2.5, Seed: 31},
		Options{TrackRounds: true, TrackLoads: true, TrackAssignments: true})
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
	runEquivalenceCase(t, "sparse-demand", g, SAER,
		Params{D: 2, C: 3, Seed: 7},
		Options{RequestCounts: counts, TrackRounds: true, TrackLoads: true})
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
	runEquivalenceCase(t, "initial-loads", g, SAER,
		Params{D: 2, C: 4, Seed: 13, MaxRounds: 300},
		Options{InitialLoads: loads, TrackRounds: true, TrackLoads: true})
}

func TestDenseSparseEquivalenceStarved(t *testing.T) {
	// The starved-client early exit must fire identically on the one-lane
	// and the routed paths.
	b := bipartite.NewBuilder(2, 2)
	b.AddEdge(0, 0).AddEdge(1, 0)
	g, err := b.Build(bipartite.KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	runEquivalenceCase(t, "starved", g, SAER,
		Params{D: 2, C: 1, Seed: 1, MaxRounds: 50},
		Options{TrackRounds: true})
}

// Property: on random small instances, the one-lane path (plain dense
// tally, server scan) and the routed path (stamped sparse fold) agree for
// arbitrary seeds, variants, thresholds, worker and shard counts.
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
		p := Params{D: 2, C: c, Seed: seed ^ 0x5ca1ab1e, MaxRounds: 400}
		opts := Options{TrackRounds: true, TrackLoads: true}

		run := func(workers, shards int) *Result {
			pp := p
			pp.Workers = workers
			oo := opts
			oo.Shards = shards
			res, err := Run(g, variant, pp, oo)
			if err != nil {
				return nil
			}
			return normalizedResult(res)
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
	p := Params{D: 2, C: 1.5, Seed: 0, MaxRounds: 50}
	opts := Options{TrackRounds: true, TrackLoads: true}
	r, err := NewRunner(g, SAER, p, opts)
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
			pp := p
			pp.Seed = reseed
			fresh, err := Run(g, SAER, pp, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalizedResult(reused), normalizedResult(fresh)) {
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

// TestRunnerReuseAcrossEngineModes reseeds a Runner on each of the two
// round paths — the one-lane plain tally and the routed stamped tally —
// through enough trials that state left by earlier trials (tally
// counts, epoch stamps, survivor ranges) is exercised by later ones.
func TestRunnerReuseAcrossEngineModes(t *testing.T) {
	g := regularGraph(t, 512, 30, 9)
	for _, path := range []struct {
		name            string
		workers, shards int
	}{{"one-lane", 1, 1}, {"routed", 1, 4}, {"routed-parallel", 2, 3}} {
		p := Params{D: 2, C: 3, Workers: path.workers}
		opts := Options{Shards: path.shards, TrackLoads: true}
		r, err := NewRunner(g, SAER, p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if (r.router == nil) != (path.name == "one-lane") {
			t.Fatalf("%s: router=%v, wrong path selected", path.name, r.router != nil)
		}
		for trial := 0; trial < 5; trial++ {
			seed := 0xA5A5 + uint64(trial)
			r.Reseed(seed)
			reused := r.Run()
			pp := p
			pp.Seed = seed
			fresh, err := Run(g, SAER, pp, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(normalizedResult(reused), normalizedResult(fresh)) {
				t.Fatalf("%s trial=%d: reused Runner diverges from fresh Runner", path.name, trial)
			}
		}
	}
}
