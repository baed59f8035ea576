package churn

import (
	"reflect"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
)

// checkPointQueries verifies the PointQueryable contract over the whole
// topology at its current version: every NeighborAt(v, i) equals the
// regenerated row's entry i and ClientDegree equals the row length.
func checkPointQueries(t *testing.T, stage string, topo *Topology) {
	t.Helper()
	if !topo.CanPointQuery() {
		t.Fatalf("%s: topology does not answer point queries", stage)
	}
	var buf []int32
	for v := 0; v < topo.NumClients(); v++ {
		buf = topo.AppendClientNeighbors(v, buf[:0])
		if got := topo.ClientDegree(v); got != len(buf) {
			t.Fatalf("%s: ClientDegree(%d) = %d, row length %d", stage, v, got, len(buf))
		}
		for i, want := range buf {
			if got := topo.NeighborAt(v, i); got != want {
				t.Fatalf("%s: NeighborAt(%d, %d) = %d, row[%d] = %d", stage, v, i, got, i, want)
			}
		}
	}
}

// TestChurnNeighborAtMatchesRow walks a mutation history on both
// backends and checks point queries against regenerated rows at every
// queryable stage: rewires keep the topology queryable (rewired clients
// answer through the epoch marks — patch arena or sampler Feistel
// image), failures make it report non-queryable (rows are filtered at
// read time), and recovery back to zero failures restores queryability.
func TestChurnNeighborAtMatchesRow(t *testing.T) {
	const n, m, k = 120, 100, 7
	for _, backend := range backends() {
		topo := mustTopology(t, Config{
			Base: mustTrustBase(t, n, m, k, 11), Sampler: TrustSampler(m, k), Seed: 42, Backend: backend,
		})
		checkPointQueries(t, "initial", topo)

		topo.Rewire(1, []int32{3, 7, 90, 3})
		checkPointQueries(t, "rewire", topo)

		topo.Rewire(2, []int32{7, 8, 9})
		checkPointQueries(t, "re-rewire", topo)

		if err := topo.FailServers([]int32{0, 1, 50}); err != nil {
			t.Fatal(err)
		}
		if topo.CanPointQuery() {
			t.Fatalf("%v: topology answers point queries under active failures", backend)
		}
		if bipartite.PointQuerier(topo) != nil {
			t.Fatalf("%v: PointQuerier returned a view under active failures", backend)
		}

		topo.RecoverServers([]int32{0, 1, 50})
		checkPointQueries(t, "recovered", topo)

		topo.RewireAll(9)
		checkPointQueries(t, "rewire-all", topo)
	}
}

// TestChurnPointQueryNeedsSamplerSupport pins the backend split: the
// implicit backend needs the sampler's At/Degree to answer point
// queries (the Erdős–Rényi skip-sampler has neither), while the
// CSR-patch backend answers from its arena regardless of the sampler.
func TestChurnPointQueryNeedsSamplerSupport(t *testing.T) {
	const n, m = 60, 50
	base := mustTrustBase(t, n, m, 5, 3)
	er := mustTopology(t, Config{
		Base: base, Sampler: ErdosRenyiSampler(m, 0.1), Seed: 9, Backend: BackendImplicit,
	})
	er.Rewire(1, []int32{2})
	if er.CanPointQuery() {
		t.Error("implicit backend with a sequential sampler answers point queries")
	}
	patched := mustTopology(t, Config{
		Base: base, Sampler: ErdosRenyiSampler(m, 0.1), Seed: 9, Backend: BackendCSRPatch,
	})
	patched.Rewire(1, []int32{2})
	checkPointQueries(t, "csr-patch with sequential sampler", patched)
}

// TestChurnPointQueryRunEquivalence is the engine-level contract under
// mutation: a Runner stepped across epochs with PatchTopology + Reseed
// — rewires, then a failure wave (point queries flip off, the engines
// must fall back to rows), then recovery (back on) — produces
// bit-for-bit the results of fresh runs on a materialized twin of each
// epoch's graph, for both backends.
func TestChurnPointQueryRunEquivalence(t *testing.T) {
	const n, m, k = 160, 140, 9
	cfg := core.Config{Variant: core.SAER, D: 2, C: 3, Seed: 777, Workers: 2, TrackRounds: true, TrackLoads: true}
	for _, backend := range backends() {
		topo := mustTopology(t, Config{
			Base: mustTrustBase(t, n, m, k, 13), Sampler: TrustSampler(m, k), Seed: 21, Backend: backend,
		})
		r, err := cfg.NewRunner(topo)
		if err != nil {
			t.Fatal(err)
		}
		step := func(stage string, mutate func()) {
			t.Helper()
			mutate()
			if err := r.PatchTopology(); err != nil {
				t.Fatal(err)
			}
			seed := cfg.Seed + topo.TopologyVersion()
			r.Reseed(seed)
			got := r.Run()
			twin, err := bipartite.Materialize(topo)
			if err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.Seed = seed
			want, err := c.Run(twin)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v/%s: run on churn topology diverges from materialized twin", backend, stage)
			}
		}
		step("rewire", func() { topo.Rewire(1, []int32{0, 3, 70, 150}) })
		step("fail", func() {
			if err := topo.FailServers([]int32{4, 5, 6}); err != nil {
				t.Fatal(err)
			}
		})
		step("recover", func() { topo.RecoverServers([]int32{4, 5, 6}) })
		step("rewire-after-recover", func() { topo.Rewire(7, []int32{9, 10, 11}) })
	}
}
