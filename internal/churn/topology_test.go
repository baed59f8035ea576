package churn

import (
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

func mustTrustBase(t *testing.T, n, m, k int, seed uint64) *gen.Implicit {
	t.Helper()
	base, err := gen.TrustSubsetImplicit(n, m, k, seed)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

func mustTopology(t *testing.T, cfg Config) *Topology {
	t.Helper()
	topo, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func backends() []Backend { return []Backend{BackendImplicit, BackendCSRPatch} }

// row reads client v's current row through the public contract.
func row(t *Topology, v int) []int32 {
	return append([]int32(nil), t.AppendClientNeighbors(v, nil)...)
}

// TestChurnBackendRowEquivalence applies the same mutation history to
// both backends and checks every row stays identical at every step —
// the storage is a pure representation knob, never an outcome knob.
func TestChurnBackendRowEquivalence(t *testing.T) {
	const n, m, k = 120, 100, 7
	mk := func(b Backend) *Topology {
		return mustTopology(t, Config{
			Base: mustTrustBase(t, n, m, k, 11), Sampler: TrustSampler(m, k), Seed: 42, Backend: b,
		})
	}
	a, b := mk(BackendImplicit), mk(BackendCSRPatch)
	check := func(stage string) {
		t.Helper()
		for v := 0; v < n; v++ {
			ra, rb := row(a, v), row(b, v)
			if !reflect.DeepEqual(ra, rb) {
				t.Fatalf("%s: row %d diverges between backends: %v vs %v", stage, v, ra, rb)
			}
		}
	}
	check("initial")
	step := func(stage string, f func(*Topology)) {
		f(a)
		f(b)
		check(stage)
	}
	step("rewire", func(tp *Topology) { tp.Rewire(1, []int32{3, 7, 90, 3}) })
	step("fail", func(tp *Topology) {
		if err := tp.FailServers([]int32{0, 1, 2, 3, 4, 5, 50, 51}); err != nil {
			t.Fatal(err)
		}
	})
	step("rewire-under-failures", func(tp *Topology) { tp.Rewire(2, []int32{7, 8, 9}) })
	step("recover", func(tp *Topology) { tp.RecoverServers([]int32{2, 3, 50}) })
	step("rewire-again", func(tp *Topology) { tp.Rewire(5, []int32{3, 10, 11}) })
	if a.TopologyVersion() != b.TopologyVersion() {
		t.Fatalf("versions diverge: %d vs %d", a.TopologyVersion(), b.TopologyVersion())
	}
}

// TestChurnRewireAllEquivalence is the ChurnFraction = 1 cross-check:
// after rewiring every client at epoch e, the topology must describe
// exactly the from-scratch trust-subset graph seeded with EpochSeed(e) —
// row for row — and a protocol run on it must be bit-for-bit identical
// to a run on that fresh graph, for both backends.
func TestChurnRewireAllEquivalence(t *testing.T) {
	const n, m, k = 180, 160, 9
	for _, backend := range backends() {
		topo := mustTopology(t, Config{
			Base: mustTrustBase(t, n, m, k, 77), Sampler: TrustSampler(m, k), Seed: 5, Backend: backend,
		})
		// An intermediate history must not matter once everything rewires.
		topo.Rewire(1, []int32{0, 5, 17})
		topo.Rewire(2, []int32{5, 40})
		topo.RewireAll(9)
		fresh, err := gen.TrustSubsetImplicit(n, m, k, topo.EpochSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			got := row(topo, v)
			want := append([]int32(nil), fresh.AppendClientNeighbors(v, nil)...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: row %d: got %v want %v", backend, v, got, want)
			}
		}
		cfg := core.Config{Variant: core.SAER, D: 2, C: 3, Seed: 999, Workers: 2, TrackRounds: true, TrackLoads: true}
		onChurn, err := cfg.Run(topo)
		if err != nil {
			t.Fatal(err)
		}
		onFresh, err := cfg.Run(fresh)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(onChurn, onFresh) {
			t.Fatalf("%v: run on fully-rewired topology diverges from run on the fresh graph", backend)
		}
	}
}

// TestChurnFailureFilterAndFallback pins the failure semantics: failed
// servers vanish from rows (order preserved), a fully-failed
// neighborhood falls back to exactly one live server, and recovery
// restores the original row.
func TestChurnFailureFilterAndFallback(t *testing.T) {
	const n, m, k = 40, 10, 3
	for _, backend := range backends() {
		topo := mustTopology(t, Config{
			Base: mustTrustBase(t, n, m, k, 3), Sampler: TrustSampler(m, k), Seed: 8, Backend: backend,
		})
		v := 13
		topo.Rewire(1, []int32{int32(v)}) // exercise the rewired path too
		orig := row(topo, v)
		if len(orig) != k {
			t.Fatalf("expected a %d-edge row, got %v", k, orig)
		}
		// Partial failure: drop the middle neighbor only.
		if err := topo.FailServers([]int32{orig[1]}); err != nil {
			t.Fatal(err)
		}
		got := row(topo, v)
		want := []int32{orig[0], orig[2]}
		if orig[0] == orig[1] || orig[2] == orig[1] { // parallel edges to the failed server
			want = nil
			for _, u := range orig {
				if u != orig[1] {
					want = append(want, u)
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: filtered row %v, want %v", backend, got, want)
		}
		// Total failure of the neighborhood: fallback to one live server.
		rest := []int32{}
		for _, u := range orig {
			if u != orig[1] {
				rest = append(rest, u)
			}
		}
		if err := topo.FailServers(rest); err != nil {
			t.Fatal(err)
		}
		got = row(topo, v)
		if len(got) != 1 || topo.FailedServer(int(got[0])) {
			t.Fatalf("%v: fallback row %v is not a single live server", backend, got)
		}
		if d := topo.ClientDegree(v); d != 1 {
			t.Fatalf("%v: ClientDegree %d disagrees with fallback row", backend, d)
		}
		// Recovery restores the original row exactly.
		topo.RecoverServers(append(rest, orig[1]))
		if got := row(topo, v); !reflect.DeepEqual(got, orig) {
			t.Fatalf("%v: row after recovery %v, want %v", backend, got, orig)
		}
	}
}

// TestChurnFailAllRefused guards the last-server invariant.
func TestChurnFailAllRefused(t *testing.T) {
	topo := mustTopology(t, Config{
		Base: mustTrustBase(t, 10, 4, 2, 1), Sampler: TrustSampler(4, 2), Seed: 1, Backend: BackendImplicit,
	})
	if err := topo.FailServers([]int32{0, 1, 2, 3}); err == nil {
		t.Fatal("failing every server was accepted")
	}
	if err := topo.FailServers([]int32{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := topo.FailServers([]int32{3}); err == nil {
		t.Fatal("failing the last live server was accepted")
	}
	if topo.NumFailed() != 3 {
		t.Fatalf("refused batch mutated state: %d failed", topo.NumFailed())
	}
	for _, bad := range []int32{-1, 4} {
		if err := topo.FailServers([]int32{bad}); err == nil {
			t.Fatalf("out-of-range server %d was accepted", bad)
		}
	}

	// A server listed twice is one newly failed server: failing {0, 0, 1}
	// of three leaves server 2 live, so it must be accepted.
	three := mustTopology(t, Config{
		Base: mustTrustBase(t, 10, 3, 2, 1), Sampler: TrustSampler(3, 2), Seed: 1, Backend: BackendImplicit,
	})
	if err := three.FailServers([]int32{0, 0, 1}); err != nil {
		t.Fatalf("failing {0, 0, 1} of 3 servers: %v", err)
	}
	if three.NumFailed() != 2 || three.FailedServer(2) || !reflect.DeepEqual(three.LiveServers(), []int32{2}) {
		t.Fatalf("after failing {0, 0, 1}: %d failed, live %v", three.NumFailed(), three.LiveServers())
	}
	if err := three.FailServers([]int32{2, 2, 0}); err == nil {
		t.Fatal("failing the last live server (listed twice) was accepted")
	}
	if three.NumFailed() != 2 || three.FailedServer(2) || !three.FailedServer(0) || !three.FailedServer(1) {
		t.Fatal("refused batch with a repeated id mutated state")
	}
}

// TestChurnFailureBitset drives random fail/recover batches, with
// repeated ids and refused batches, on both backends over an implicit
// and a CSR base. m is not a multiple of 64, so the bitset's last word
// is partial. After every step the failed set must match a reference
// model, the bitset must hold exactly NumFailed bits and none past m,
// and every row, appended after a non-empty prefix, must equal the
// reference filter: the row without failures minus FailedServer's
// servers, or the deterministic live fallback when nothing survives.
func TestChurnFailureBitset(t *testing.T) {
	const n, m, k = 60, 150, 3
	impl := mustTrustBase(t, n, m, k, 5)
	csr, err := impl.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []bipartite.Topology{impl, csr} {
		for _, backend := range backends() {
			topo := mustTopology(t, Config{Base: base, Sampler: TrustSampler(m, k), Seed: 9, Backend: backend})
			topo.Rewire(1, []int32{0, 3, 7, 11, 40})
			unfailed := make([][]int32, n)
			for v := range unfailed {
				unfailed[v] = row(topo, v)
			}
			ref := make([]bool, m)
			numRef, refusals, fallbacks := 0, 0, 0
			r := rng.New(17)
			for step := 0; step < 400; step++ {
				batch := make([]int32, 1+r.Intn(12))
				for i := range batch {
					batch[i] = int32(r.Intn(m))
				}
				batch = append(batch, batch[0]) // a repeated id in every batch
				op := r.Intn(10)
				if op == 0 {
					batch = append(batch, topo.LiveServers()...) // refused
				}
				if op < 7 {
					newly := map[int32]bool{}
					for _, u := range batch {
						if !ref[u] {
							newly[u] = true
						}
					}
					err := topo.FailServers(batch)
					if refuse := numRef+len(newly) >= m; refuse != (err != nil) {
						t.Fatalf("%v: step %d: FailServers error %v, want refusal %v", backend, step, err, refuse)
					}
					if err != nil {
						refusals++
					} else {
						for u := range newly {
							ref[u] = true
						}
						numRef += len(newly)
					}
				} else {
					topo.RecoverServers(batch)
					for _, u := range batch {
						if ref[u] {
							ref[u] = false
							numRef--
						}
					}
				}

				var live []int32
				for u := 0; u < m; u++ {
					if topo.FailedServer(u) != ref[u] {
						t.Fatalf("%v: step %d: FailedServer(%d) = %v, want %v", backend, step, u, !ref[u], ref[u])
					}
					if !ref[u] {
						live = append(live, int32(u))
					}
				}
				ones := 0
				for _, w := range topo.failedBits {
					ones += bits.OnesCount64(w)
				}
				if topo.NumFailed() != numRef || ones != numRef || topo.failedBits[m/64]>>(m%64) != 0 {
					t.Fatalf("%v: step %d: NumFailed %d, %d bits set, want %d (last word %#x)",
						backend, step, topo.NumFailed(), ones, numRef, topo.failedBits[m/64])
				}
				if !reflect.DeepEqual(topo.LiveServers(), live) {
					t.Fatalf("%v: step %d: LiveServers %v, want %v", backend, step, topo.LiveServers(), live)
				}
				for v := 0; v < n; v++ {
					want := []int32{-1, -2}
					for _, u := range unfailed[v] {
						if !topo.FailedServer(int(u)) {
							want = append(want, u)
						}
					}
					if len(want) == 2 {
						s := rng.StreamAt(9^fallbackSalt, v)
						want = append(want, live[s.Intn(len(live))])
						fallbacks++
					}
					if got := topo.AppendClientNeighbors(v, []int32{-1, -2}); !reflect.DeepEqual(got, want) {
						t.Fatalf("%v: step %d: row %d = %v, want %v", backend, step, v, got, want)
					}
				}
			}
			if refusals == 0 || fallbacks == 0 {
				t.Errorf("%v over %T: %d refused batches, %d fallback rows; want both > 0", backend, base, refusals, fallbacks)
			}
		}
	}
}

// TestChurnPresence pins arrival/departure bookkeeping: presence counts,
// fresh rows on arrival, and version bumps on every mutation.
func TestChurnPresence(t *testing.T) {
	const n, m, k = 30, 20, 4
	topo := mustTopology(t, Config{
		Base: mustTrustBase(t, n, m, k, 2), Sampler: TrustSampler(m, k), Seed: 7, Backend: BackendCSRPatch,
	})
	if topo.NumPresent() != n {
		t.Fatalf("expected all %d clients present, got %d", n, topo.NumPresent())
	}
	v0 := topo.TopologyVersion()
	topo.Depart([]int32{1, 2, 2, 5})
	if topo.NumPresent() != n-3 || topo.Present(2) || !topo.Present(3) {
		t.Fatalf("departure bookkeeping wrong: present=%d", topo.NumPresent())
	}
	baseRow := row(topo, 2)
	topo.Arrive(4, []int32{2})
	if !topo.Present(2) || topo.NumPresent() != n-2 {
		t.Fatal("arrival bookkeeping wrong")
	}
	if topo.RewireEpoch(2) != 4 {
		t.Fatalf("arrival did not rewire: epoch %d", topo.RewireEpoch(2))
	}
	if reflect.DeepEqual(row(topo, 2), baseRow) {
		t.Log("note: re-arrived client drew its base row again (possible but astronomically unlikely)")
	}
	if topo.TopologyVersion() == v0 {
		t.Fatal("mutations did not bump the version")
	}
	got := topo.AppendPresentClients(nil)
	if len(got) != topo.NumPresent() {
		t.Fatalf("AppendPresentClients returned %d of %d", len(got), topo.NumPresent())
	}
}

// TestRowPatchCompaction re-rewires the same clients many times and
// checks the patch arena stays proportional to the live patched edges
// instead of the full rewrite history.
func TestRowPatchCompaction(t *testing.T) {
	const n, m, k = 64, 64, 16
	topo := mustTopology(t, Config{
		Base: mustTrustBase(t, n, m, k, 6), Sampler: TrustSampler(m, k), Seed: 9, Backend: BackendCSRPatch,
	})
	clients := make([]int32, n)
	for v := range clients {
		clients[v] = int32(v)
	}
	for epoch := 1; epoch <= 200; epoch++ {
		topo.Rewire(epoch, clients)
	}
	live := n * k
	if w := topo.patch.words(); w > 2*live+compactMinWords {
		t.Fatalf("patch arena holds %d words for %d live edges after 200 full rewrites", w, live)
	}
	// Rows must survive compaction.
	fresh, err := gen.TrustSubsetImplicit(n, m, k, topo.EpochSeed(200))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		want := append([]int32(nil), fresh.AppendClientNeighbors(v, nil)...)
		if got := row(topo, v); !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d corrupted by compaction: got %v want %v", v, got, want)
		}
	}
}

// TestChurnMaterializedBase runs the read path over a materialized CSR
// base (the aliasing AppendClientNeighbors case) with and without
// failures, against the implicit base as reference.
func TestChurnMaterializedBase(t *testing.T) {
	const n, m, k = 90, 80, 6
	impl := mustTrustBase(t, n, m, k, 21)
	csr, err := impl.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	a := mustTopology(t, Config{Base: impl, Sampler: TrustSampler(m, k), Seed: 4, Backend: BackendImplicit})
	b := mustTopology(t, Config{Base: csr, Sampler: TrustSampler(m, k), Seed: 4, Backend: BackendImplicit})
	step := func(f func(*Topology)) {
		f(a)
		f(b)
		for v := 0; v < n; v++ {
			if ra, rb := row(a, v), row(b, v); !reflect.DeepEqual(ra, rb) {
				t.Fatalf("row %d diverges between implicit and CSR base: %v vs %v", v, ra, rb)
			}
		}
	}
	step(func(*Topology) {})
	step(func(tp *Topology) { tp.Rewire(1, []int32{1, 2, 3}) })
	step(func(tp *Topology) {
		if err := tp.FailServers([]int32{5, 6, 7, 8, 9, 10}); err != nil {
			t.Fatal(err)
		}
	})
	// A scratch buffer with existing content must be appended to, not
	// overwritten, in both the aliasing and the filtering paths.
	buf := []int32{-7}
	got := b.AppendClientNeighbors(3, buf)
	if got[0] != -7 || len(got) < 2 {
		t.Fatalf("prefix of caller buffer clobbered: %v", got)
	}
}

// TestChurnSamplers sanity-checks the two rewiring samplers: pure
// functions of (epochSeed, v), correct degree, in-range values.
func TestChurnSamplers(t *testing.T) {
	const m = 50
	ts := TrustSampler(m, 5)
	er := ErdosRenyiSampler(m, 0.1)
	for _, s := range []Sampler{ts, er} {
		a := s.Row(123, 7, nil)
		b := s.Row(123, 7, nil)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("sampler is not a pure function of (epochSeed, v)")
		}
		if len(a) == 0 || len(a) > s.MaxDegree {
			t.Fatalf("row length %d outside (0, %d]", len(a), s.MaxDegree)
		}
		for _, u := range a {
			if u < 0 || int(u) >= m {
				t.Fatalf("out-of-range server %d", u)
			}
		}
		if reflect.DeepEqual(a, s.Row(124, 7, nil)) && len(a) > 2 {
			t.Fatal("distinct epoch seeds produced the same row")
		}
	}
	if got := ts.Row(9, 3, nil); len(got) != 5 {
		t.Fatalf("trust sampler degree %d, want 5", len(got))
	}
}

// TestChurnNewRejectsMismatchedSampler pins New's sampler checks: a
// sampler that draws from another server count than the base's, or
// whose rows could be longer than the server count, is refused with
// both numbers in the error. Before the check, the first case panicked
// inside a protocol run after RewireAll (a rewired row listed server 306
// of 64), and the second repeated servers in a 100-entry row over 64.
func TestChurnNewRejectsMismatchedSampler(t *testing.T) {
	const n, m = 80, 64
	base := mustTrustBase(t, n, m, 8, 1)
	for _, tc := range []struct {
		name    string
		sampler Sampler
		want    []string
	}{
		{"server count", TrustSampler(1000, 8), []string{"1000", "64"}},
		{"max degree", TrustSampler(m, 100), []string{"100", "64"}},
		{"erdos-renyi server count", ErdosRenyiSampler(65, 0.1), []string{"65", "64"}},
	} {
		for _, backend := range backends() {
			_, err := New(Config{Base: base, Sampler: tc.sampler, Seed: 3, Backend: backend})
			if err == nil {
				t.Fatalf("%s/%v: New accepted the sampler", tc.name, backend)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("%s/%v: error %q does not name %s", tc.name, backend, err, w)
				}
			}
		}
	}
	if _, err := New(Config{Base: base, Sampler: TrustSampler(m, m), Seed: 3}); err != nil {
		t.Errorf("a full-width sampler over the base's servers was refused: %v", err)
	}
}
