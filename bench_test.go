// Package repro's top-level benchmark harness: one benchmark per
// experiment table (E1–E17, matching DESIGN.md — each runs its full
// sweep.Spec through the shared engine in quick mode) plus
// micro-benchmarks for the substrates (graph generation, protocol rounds,
// baselines) and ablations for the design choices called out in DESIGN.md
// (worker count, tracking overhead, SAER vs RAES, array engine vs channel
// engine). The row-sampler micro-benchmarks (Feistel partial shuffle vs
// the O(k²) dup-scan it replaced) live next to the samplers in
// internal/gen (BenchmarkRowSamplers).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bipartite"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// benchGraph builds (and caches per benchmark invocation) a Δ-regular
// graph of the given size.
func benchGraph(b *testing.B, n, delta int) *bipartite.Graph {
	b.Helper()
	g, err := gen.Regular(n, delta, rng.New(uint64(n)))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// --- Substrate micro-benchmarks -------------------------------------------

func BenchmarkGraphGenRegular(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			delta := 100
			for i := 0; i < b.N; i++ {
				if _, err := gen.Regular(n, delta, rng.New(uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGraphGenTrustSubset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gen.TrustSubset(1<<13, 1<<13, 100, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphGenTrustSubsetImplicit measures the O(1)-state implicit
// twin of the trust-subset family: construction is free, so the benchmark
// includes regenerating every client's row once (the per-round cost the
// protocol actually pays).
func BenchmarkGraphGenTrustSubsetImplicit(b *testing.B) {
	n := 1 << 13
	buf := make([]int32, 0, 100)
	for i := 0; i < b.N; i++ {
		topo, err := gen.TrustSubsetImplicit(n, n, 100, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		for v := 0; v < n; v++ {
			buf = topo.AppendClientNeighbors(v, buf[:0])
		}
	}
}

func BenchmarkGraphGenProximity(b *testing.B) {
	cfg := gen.ProximityConfig{
		NumClients: 1 << 13,
		NumServers: 1 << 13,
		Radius:     gen.RadiusForExpectedDegree(1<<13, 100),
		MinDegree:  2,
	}
	for i := 0; i < b.N; i++ {
		if _, err := gen.Proximity(cfg, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphGenAlmostRegular(b *testing.B) {
	cfg := gen.DefaultAlmostRegularConfig(1 << 13)
	for i := 0; i < b.N; i++ {
		if _, err := gen.AlmostRegular(cfg, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSAERRun measures full protocol executions per size.
func BenchmarkSAERRun(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		delta := 100
		g := benchGraph(b, n, delta)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: uint64(i)}.Run(g)
				if err != nil || !res.Completed {
					b.Fatalf("run failed: %v %v", err, res)
				}
			}
		})
	}
}

// BenchmarkShardedRound1 is the locality ablation of the routed round
// loop: it isolates the dense first round (MaxRounds=1, every client
// active) — the hot spot where every client's d destination draws land
// as random increments across the whole m-server tally — at two shard
// counts: phase 1 buckets destinations by server shard, phase 2 folds
// each shard's increments inside one contiguous cache-blocked window.
// Results are identical by construction (the core equivalence tests
// sweep shard counts); only the memory behaviour differs. CSR Δ=16
// graphs keep row reads free so the tally traffic dominates the
// measurement.
func BenchmarkShardedRound1(b *testing.B) {
	for _, n := range []int{1 << 18, 1 << 20} {
		g := benchGraph(b, n, 16)
		for _, shards := range []int{8, 32} {
			b.Run(fmt.Sprintf("n=%d/shards=%d", n, shards), func(b *testing.B) {
				r, err := core.Config{Variant: core.SAER, D: 2, C: 4, MaxRounds: 1, Shards: shards}.NewRunner(g)
				if err != nil {
					b.Fatal(err)
				}
				// One untimed run grows the route lanes to steady state, so
				// the short smoke samples measure locality rather than the
				// first round's one-off buffer growth.
				r.Reseed(0)
				r.Run()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.Reseed(uint64(i))
					if res := r.Run(); res.Rounds != 1 {
						b.Fatalf("expected exactly one round, got %v", res)
					}
				}
			})
		}
	}
}

// BenchmarkTelemetryRound is the telemetry layer's overhead ablation on
// the same hot spot as BenchmarkShardedRound1 (the dense first round at
// n = 2¹⁸, sharded pipeline): "off" runs with a nil registry — every
// instrument handle is a typed nil whose methods return before touching
// memory, so the delta against the matching BenchmarkShardedRound1
// configuration is the cost of the disabled fast path and must stay
// within noise (<2%, see PERFORMANCE.md) — while "on" attaches a live
// registry, bounding what full phase spans plus counters cost per round.
func BenchmarkTelemetryRound(b *testing.B) {
	const n = 1 << 18
	g := benchGraph(b, n, 16)
	for _, mode := range []struct {
		name string
		reg  *telemetry.Registry
	}{
		{"off", nil},
		{"on", telemetry.NewRegistry()},
	} {
		b.Run(fmt.Sprintf("n=%d/shards=8/%s", n, mode.name), func(b *testing.B) {
			cfg := core.Config{Variant: core.SAER, D: 2, C: 4, MaxRounds: 1, Shards: 8, Telemetry: mode.reg}
			r, err := cfg.NewRunner(g)
			if err != nil {
				b.Fatal(err)
			}
			r.Reseed(0)
			r.Run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reseed(uint64(i))
				if res := r.Run(); res.Rounds != 1 {
					b.Fatalf("expected exactly one round, got %v", res)
				}
			}
		})
	}
}

// benchRowOnly hides a topology's point-query (and version) interfaces
// so the engines take the row-regeneration path. Only safe around
// implicit topologies: AppendClientNeighbors fills the caller's buffer,
// so no aliasing is lost by dropping the CSR fast path.
type benchRowOnly struct{ bipartite.Topology }

// BenchmarkPointQueryDraw is the point-query kernel's headline ablation:
// one dense round at n = 2²⁰ in the paper's Δ = log²n = 400 regime,
// where each client needs d = 2 destination draws from a 400-entry row.
// The point-query path asks the topology for exactly those 2 neighbors
// (2 Feistel images per client); the row-regen path — the pre-kernel
// behaviour, forced here by hiding the PointQueryable interface —
// regenerates all 400 entries to use 2 of them. Both paths consume the
// identical Intn draw sequence, so results are bit-for-bit equal (the
// core equivalence suite pins it) and the ratio is pure regeneration
// waste: ~Δ/d ≈ 200× fewer sampler evaluations, bounded in practice by
// the tally traffic the round also pays. Numbers in PERFORMANCE.md.
func BenchmarkPointQueryDraw(b *testing.B) {
	const n = 1 << 20
	const delta = 400
	impl, err := gen.RegularImplicit(n, delta, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, access := range []struct {
		name string
		topo bipartite.Topology
	}{
		{"point-query", impl},
		{"row-regen", benchRowOnly{impl}},
	} {
		b.Run(fmt.Sprintf("n=%d/%s", n, access.name), func(b *testing.B) {
			r, err := core.Config{Variant: core.SAER, D: 2, C: 4, MaxRounds: 1}.NewRunner(access.topo)
			if err != nil {
				b.Fatal(err)
			}
			// One untimed run reaches buffer steady state, as in
			// BenchmarkShardedRound1.
			r.Reseed(0)
			r.Run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reseed(uint64(i))
				if res := r.Run(); res.Rounds != 1 {
					b.Fatalf("expected exactly one round, got %v", res)
				}
			}
		})
	}
}

// BenchmarkLateRoundTail measures the long-tail workload: a
// near-threshold c forces heavy burning, so the run spends most of its
// rounds on a tiny alive frontier, which the round loop walks instead of
// scanning all n clients.
func BenchmarkLateRoundTail(b *testing.B) {
	n := 1 << 16
	g := benchGraph(b, n, 100)
	b.Run("auto", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.Config{Variant: core.SAER, D: 2, C: 2, Seed: uint64(i)}.Run(g)
			if err != nil {
				b.Fatal(err)
			}
			if res.Rounds < 5 {
				b.Fatalf("workload too easy to exercise the tail: %v", res)
			}
		}
	})
}

// BenchmarkScaleFullRun is the multi-core scaling curve scripts/scale.sh
// records (BENCH_SCALE_<date>.json, rendered in PERFORMANCE.md): one full
// SAER run on an implicit topology with Config.Workers = 0, so a
// `go test -cpu 1,2,4` sweep governs the worker count through
// GOMAXPROCS. At n = 2²⁰, Δ = 16 the sub-benchmarks contrast the
// autotuned shard count with a single shard (where every round counts
// into one byte tally when the worker count is one). "n=65536" is the
// wire-loopback workload's shape (n = 2¹⁶, Δ = 256, autotuned shards)
// run in process, where few shards make the draw's route step the part
// that must scale.
func BenchmarkScaleFullRun(b *testing.B) {
	for _, tc := range []struct {
		name     string
		n, delta int
		shards   int
	}{
		{"auto", 1 << 20, 16, 0},
		{"shards=1", 1 << 20, 16, 1},
		{"n=65536", 1 << 16, 256, 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			impl, err := gen.RegularImplicit(tc.n, tc.delta, 9)
			if err != nil {
				b.Fatal(err)
			}
			r, err := core.Config{Variant: core.SAER, D: 2, C: 4, Shards: tc.shards}.NewRunner(impl)
			if err != nil {
				b.Fatal(err)
			}
			// One untimed run grows the route lanes and frontier buffers to
			// steady state, as in BenchmarkShardedRound1.
			r.Reseed(0)
			r.Run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reseed(uint64(i))
				if res := r.Run(); !res.Completed {
					b.Fatalf("run did not complete: %v", res)
				}
			}
		})
	}
}

// BenchmarkAblationWorkers quantifies the parallel-engine design choice:
// identical runs with 1, 2, 4 and GOMAXPROCS workers (results are
// identical by construction; only wall-clock changes).
func BenchmarkAblationWorkers(b *testing.B) {
	g := benchGraph(b, 1<<15, 128)
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: uint64(i), Workers: workers}.Run(g)
				if err != nil || !res.Completed {
					b.Fatalf("run failed: %v %v", err, res)
				}
			}
		})
	}
}

// BenchmarkAblationTracking quantifies the cost of the O(|E|)-per-round
// neighborhood tracking used by the analysis experiments.
func BenchmarkAblationTracking(b *testing.B) {
	g := benchGraph(b, 1<<14, 128)
	for _, track := range []bool{false, true} {
		b.Run(fmt.Sprintf("track=%v", track), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: uint64(i),
					TrackNeighborhoods: track}.Run(g)
				if err != nil || !res.Completed {
					b.Fatalf("run failed: %v %v", err, res)
				}
			}
		})
	}
}

// BenchmarkAblationVariant contrasts SAER and RAES on the same instance
// (Corollary 2's pairing).
func BenchmarkAblationVariant(b *testing.B) {
	g := benchGraph(b, 1<<14, 128)
	for _, variant := range []core.Variant{core.SAER, core.RAES} {
		b.Run(variant.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Config{Variant: variant, D: 2, C: 2.5, Seed: uint64(i)}.Run(g)
				if err != nil || !res.Completed {
					b.Fatalf("run failed: %v %v", err, res)
				}
			}
		})
	}
}

// BenchmarkAblationEngine contrasts the array-based engine (core) with the
// goroutine-per-entity message-passing engine (netsim) on the same
// instance; both compute the identical random process, so the ratio is the
// price of literal message passing.
func BenchmarkAblationEngine(b *testing.B) {
	g := benchGraph(b, 1<<12, 100)
	cfg := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: 3}
	b.Run("core-array", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cfg.Run(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("netsim-channels", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := netsim.Run(g, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBaselines measures the comparison algorithms on the E7 graph.
func BenchmarkBaselines(b *testing.B) {
	g := benchGraph(b, 1<<13, 100)
	d := 2
	b.Run("one-choice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.OneChoice(g, d, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy-best-of-2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.GreedyBestOfK(g, d, 2, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("greedy-full-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.GreedyFullScan(g, d, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel-threshold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := baseline.ParallelThreshold(g, d, 4, 0, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- One benchmark per experiment table (E1–E14) --------------------------

// benchExperiment runs the identified experiment in quick mode; the
// regenerated table is what the corresponding EXPERIMENTS.md entry records.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.QuickSuiteConfig()
	cfg.Trials = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		table, err := exp.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("experiment %s produced an empty table", id)
		}
	}
}

func BenchmarkE1CompletionScaling(b *testing.B) { benchExperiment(b, "E1") }
func BenchmarkE2WorkScaling(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3BurnedFraction(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4SaerVsRaes(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5MaxLoad(b *testing.B)           { benchExperiment(b, "E5") }
func BenchmarkE6DegreeSweep(b *testing.B)       { benchExperiment(b, "E6") }
func BenchmarkE7Baselines(b *testing.B)         { benchExperiment(b, "E7") }
func BenchmarkE8AlmostRegular(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9ThresholdSweep(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10Dense(b *testing.B)            { benchExperiment(b, "E10") }
func BenchmarkE11AliveDecay(b *testing.B)       { benchExperiment(b, "E11") }

// BenchmarkE12Dynamic benches the dynamic scenario per path: the E12
// table now runs both the incremental churn path and the legacy rebuild
// path, so the comparable unit for the bench-diff gate is one scenario,
// not the doubled table (the old single-workload BenchmarkE12Dynamic
// name would have compared a two-path run against a one-path baseline).
func BenchmarkE12Dynamic(b *testing.B) {
	for _, path := range []struct {
		name    string
		rebuild bool
	}{{"incremental", false}, {"rebuild", true}} {
		b.Run(path.name, func(b *testing.B) {
			dc := experiments.DefaultDynamicConfig(experiments.QuickSuiteConfig())
			dc.Rebuild = path.rebuild
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				outcomes, err := experiments.RunDynamicScenario(dc, uint64(i))
				if err != nil || len(outcomes) != dc.Batches {
					b.Fatalf("scenario failed: %v (%d outcomes)", err, len(outcomes))
				}
			}
		})
	}
}
func BenchmarkE13Expander(b *testing.B)     { benchExperiment(b, "E13") }
func BenchmarkE14Demand(b *testing.B)       { benchExperiment(b, "E14") }
func BenchmarkE15ChurnRate(b *testing.B)    { benchExperiment(b, "E15") }
func BenchmarkE16FailureWaves(b *testing.B) { benchExperiment(b, "E16") }
func BenchmarkE17Arrivals(b *testing.B)     { benchExperiment(b, "E17") }

// BenchmarkChurnEpoch is the incremental-vs-rebuild ablation of the
// churn subsystem (ROADMAP: "edge churn instead of full re-randomization
// keeps epoch cost proportional to churn, not n·Δ"). One iteration is
// one epoch of the E12-shaped metastable scenario at n = 2¹⁸ with 10%
// of the clients rewiring per epoch: expiry, topology update, and the
// protocol run on the carried loads. The incremental paths mutate one
// churn.Topology in place (implicit backend: O(changed) epoch marks;
// csr-patch backend: O(changed·Δ) arena writes) and reuse one Runner via
// PatchTopology; the rebuild path is the legacy approach — a freshly
// materialized trust-subset graph per epoch plus SwapTopology — whose
// O(n·Δ) construction dominates the epoch. Results across the two
// incremental backends are bit-for-bit identical (the equivalence suite
// pins it); the rebuild path draws different graphs, so only its cost is
// comparable. Numbers are recorded in PERFORMANCE.md.
func BenchmarkChurnEpoch(b *testing.B) {
	const n = 1 << 18
	const delta = 16
	const d, c = 2, 4.0
	rewireCount := n / 10 // 10% edge churn per epoch

	for _, backend := range []churn.Backend{churn.BackendImplicit, churn.BackendCSRPatch} {
		b.Run(fmt.Sprintf("n=%d/incremental-%s", n, backend), func(b *testing.B) {
			base, err := gen.TrustSubsetImplicit(n, n, delta, 1)
			if err != nil {
				b.Fatal(err)
			}
			topo, err := churn.New(churn.Config{
				Base: base, Sampler: churn.TrustSampler(n, delta), Seed: 2, Backend: backend,
			})
			if err != nil {
				b.Fatal(err)
			}
			sch, err := churn.NewScheduler(topo, churn.SchedulerConfig{
				Protocol: core.Config{Variant: core.SAER, D: d, C: c}, LoadExpiry: 0.5,
			}, 3)
			if err != nil {
				b.Fatal(err)
			}
			src := rng.New(4)
			step := func() {
				out, err := sch.Step(churn.EpochEvent{
					Dt: 1, RedemandAll: true,
					Rewire: topo.SamplePresent(src, rewireCount),
				})
				if err != nil || !out.Completed {
					b.Fatalf("epoch failed: %v %+v", err, out)
				}
			}
			step() // reach the metastable carried-load regime untimed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}

	b.Run(fmt.Sprintf("n=%d/rebuild", n), func(b *testing.B) {
		src := rng.New(4)
		loads := make([]int, n)
		var runner *core.Runner
		step := func() {
			for u := range loads {
				loads[u] -= loads[u] / 2
			}
			g, err := gen.TrustSubset(n, n, delta, src.Split())
			if err != nil {
				b.Fatal(err)
			}
			if runner == nil {
				proto := core.Config{Variant: core.SAER, D: d, C: c, Seed: src.Uint64(),
					InitialLoads: loads, TrackLoads: true}
				runner, err = proto.NewRunner(g)
				if err != nil {
					b.Fatal(err)
				}
			} else {
				if err := runner.SwapTopology(g); err != nil {
					b.Fatal(err)
				}
				runner.Reseed(src.Uint64())
			}
			res := runner.Run()
			if !res.Completed {
				b.Fatalf("epoch failed: %v", res)
			}
			copy(loads, res.Loads)
		}
		step()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
}

// TestExperimentSuiteQuick is the integration test that regenerates every
// experiment table end-to-end (quick sizes) and fails if any experiment
// errors or produces an empty table. It is the `go test` counterpart of
// the saer-experiments CLI.
func TestExperimentSuiteQuick(t *testing.T) {
	cfg := experiments.QuickSuiteConfig()
	cfg.Trials = 2
	for _, exp := range experiments.All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			table, err := exp.Run(cfg)
			if err != nil {
				t.Fatalf("%s failed: %v", exp.ID, err)
			}
			if len(table.Rows) == 0 {
				t.Fatalf("%s produced an empty table", exp.ID)
			}
			t.Logf("\n%s", table)
		})
	}
}

// BenchmarkWireRoundLoopback measures the service mode end to end over
// loopback TCP: per iteration, every multiplexed session runs one full
// SAER trial (all rounds, scatter/gather across 2 shard servers)
// concurrently over the shared pooled connections. Comparing the
// sessions=k points shows what session multiplexing buys: if k trials
// in flight amortize the per-frame round trips, ns/op grows by less
// than k×. The sessions=1 point is the synchronous-client baseline the
// PERFORMANCE.md wire table tracks.
func BenchmarkWireRoundLoopback(b *testing.B) {
	const n = 1 << 12
	const shards = 2
	g := benchGraph(b, n, 24)
	cfg := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: 1}
	for _, sessions := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("n=%d/sessions=%d", n, sessions), func(b *testing.B) {
			ss, err := wire.StartLocalSet(shards)
			if err != nil {
				b.Fatal(err)
			}
			defer ss.Close()
			bank, err := wire.DialConfig(ss.Addrs(), cfg.Variant, int32(cfg.Params().Capacity()), n,
				wire.BankConfig{Sessions: sessions})
			if err != nil {
				b.Fatal(err)
			}
			defer bank.Close()
			drivers := make([]*core.Driver, sessions)
			for s := range drivers {
				drivers[s], err = core.NewDriver(g, cfg, bank.Session(s))
				if err != nil {
					b.Fatal(err)
				}
			}
			seed := uint64(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for s := range drivers {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						dr := drivers[s]
						dr.Reseed(seed + uint64(s))
						if _, err := dr.Run(); err != nil {
							b.Error(err)
						}
					}(s)
				}
				wg.Wait()
				seed += uint64(sessions)
			}
		})
	}
}
