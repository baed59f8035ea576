package gen

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/bipartite"
)

// collectRow regenerates client v's row into a fresh slice.
func collectRow(t *testing.T, topo *Implicit, v int) []int32 {
	t.Helper()
	return topo.AppendClientNeighbors(v, nil)
}

func TestFeistelIsPermutation(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 100, 1023, 1024, 4097} {
		f := newFeistel(n, 0xBEEF+uint64(n))
		seen := make([]bool, n)
		for x := 0; x < n; x++ {
			y := f.apply(uint64(x))
			if y >= uint64(n) {
				t.Fatalf("n=%d: apply(%d) = %d out of range", n, x, y)
			}
			if seen[y] {
				t.Fatalf("n=%d: apply not injective at image %d", n, y)
			}
			seen[y] = true
		}
	}
}

// TestLockstepRowsMatchApply pins the row kernel to the scalar
// reference: appendPrefix must append exactly apply(0), …, apply(k−1)
// and appendImagesOf exactly perms[i].apply(x), for pools of even and
// odd bit width (the odd ones cycle-walk), k on both sides of every
// multiple of 4, and buffers that are empty, carry a prefix, or lack the
// capacity for the row.
func TestLockstepRowsMatchApply(t *testing.T) {
	pools := []int{1, 2, 3, 5, 7, 64, 1000, 1 << 16, 1<<16 + 1, 1 << 17, 70000, 1 << 18}
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257}
	bufs := map[string]func(k int) []int32{
		"empty":          func(int) []int32 { return nil },
		"prefix":         func(k int) []int32 { return append(make([]int32, 0, k+3), -1, -2, -3) },
		"under-capacity": func(k int) []int32 { return append(make([]int32, 0, 2+k/2), -1, -2) },
	}
	check := func(name string, buf, got, want []int32) {
		t.Helper()
		if len(got) != len(buf)+len(want) {
			t.Fatalf("%s: appended %d entries to %d, want %d", name, len(got)-len(buf), len(buf), len(want))
		}
		for i := range buf {
			if got[i] != buf[i] {
				t.Fatalf("%s: prefix entry %d overwritten: %d, want %d", name, i, got[i], buf[i])
			}
		}
		for i, w := range want {
			if g := got[len(buf)+i]; g != w {
				t.Fatalf("%s: entry %d = %d, scalar apply gives %d", name, i, g, w)
			}
		}
	}
	for _, pool := range pools {
		for _, k := range ks {
			for seed := uint64(0); seed < 3; seed++ {
				perms := make([]feistel, k)
				for i := range perms {
					perms[i] = newFeistel(pool, seed<<32|uint64(pool)*31+uint64(i))
				}
				for bufName, mk := range bufs {
					if k <= pool {
						f := &perms[0]
						want := make([]int32, k)
						for i := range want {
							want[i] = int32(f.apply(uint64(i)))
						}
						buf := mk(k)
						name := fmt.Sprintf("appendPrefix pool=%d k=%d seed=%d buf=%s", pool, k, seed, bufName)
						check(name, buf, f.appendPrefix(buf, k), want)
					}
					for _, x := range []int{0, pool / 2, pool - 1} {
						want := make([]int32, k)
						for i := range want {
							want[i] = int32(perms[i].apply(uint64(x)))
						}
						buf := mk(k)
						name := fmt.Sprintf("appendImagesOf pool=%d k=%d x=%d seed=%d buf=%s", pool, k, x, seed, bufName)
						check(name, buf, appendImagesOf(buf, perms, uint64(x)), want)
					}
				}
			}
		}
	}
}

func TestRegularImplicitDegreesAndDeterminism(t *testing.T) {
	n, delta := 512, 12
	topo, err := RegularImplicit(n, delta, 42)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumClients() != n || topo.NumServers() != n {
		t.Fatalf("wrong sides: %d x %d", topo.NumClients(), topo.NumServers())
	}
	if topo.MaxClientDegree() != delta || topo.MinClientDegree() != delta {
		t.Fatalf("degree bounds [%d,%d], want [%d,%d]", topo.MinClientDegree(), topo.MaxClientDegree(), delta, delta)
	}
	serverDeg := make([]int, n)
	for v := 0; v < n; v++ {
		row := collectRow(t, topo, v)
		if len(row) != delta {
			t.Fatalf("client %d degree %d, want %d", v, len(row), delta)
		}
		again := collectRow(t, topo, v)
		for i := range row {
			if row[i] != again[i] {
				t.Fatalf("client %d row not deterministic at slot %d", v, i)
			}
			serverDeg[row[i]]++
		}
	}
	for u, d := range serverDeg {
		if d != delta {
			t.Fatalf("server %d degree %d, want %d (matchings are not permutations)", u, d, delta)
		}
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRegularImplicitMaterializeMatches(t *testing.T) {
	topo, err := RegularImplicit(256, 9, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topo.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular(9) {
		t.Fatal("materialized graph is not 9-regular")
	}
	for v := 0; v < topo.NumClients(); v++ {
		want := collectRow(t, topo, v)
		got := g.ClientNeighbors(v)
		if len(got) != len(want) {
			t.Fatalf("client %d: CSR row length %d, implicit %d", v, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("client %d slot %d: CSR %d, implicit %d", v, i, got[i], want[i])
			}
		}
	}
}

func TestErdosRenyiImplicitRows(t *testing.T) {
	nc, ns := 700, 600
	p := 0.02
	topo, err := ErdosRenyiImplicit(nc, ns, p, true, 99)
	if err != nil {
		t.Fatal(err)
	}
	if topo.MinClientDegree() < 1 {
		t.Fatalf("ensureClients violated: min degree %d", topo.MinClientDegree())
	}
	total := 0
	for v := 0; v < nc; v++ {
		row := collectRow(t, topo, v)
		if len(row) != topo.ClientDegree(v) {
			t.Fatalf("client %d: row length %d vs recorded degree %d", v, len(row), topo.ClientDegree(v))
		}
		total += len(row)
		// Skip-sampled rows are strictly ascending (hence duplicate-free)
		// except for the single-edge isolated-client fallback.
		for i := 1; i < len(row); i++ {
			if row[i] <= row[i-1] {
				t.Fatalf("client %d row not ascending at slot %d", v, i)
			}
		}
		for _, u := range row {
			if u < 0 || int(u) >= ns {
				t.Fatalf("client %d lists out-of-range server %d", v, u)
			}
		}
	}
	if total != topo.NumEdges() {
		t.Fatalf("NumEdges %d, rows sum to %d", topo.NumEdges(), total)
	}
	// Mean degree should be near p·ns.
	mean := float64(total) / float64(nc)
	if want := p * float64(ns); math.Abs(mean-want) > 3 {
		t.Fatalf("mean degree %.2f too far from %.2f", mean, want)
	}
	g, err := topo.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != total {
		t.Fatalf("materialized edges %d, implicit %d", g.NumEdges(), total)
	}
}

func TestAlmostRegularImplicitStructure(t *testing.T) {
	cfg := DefaultAlmostRegularConfig(1024)
	topo, err := AlmostRegularImplicit(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topo.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.MinClientDegree < cfg.BaseDegree {
		t.Fatalf("min client degree %d below base %d", st.MinClientDegree, cfg.BaseDegree)
	}
	if st.MaxClientDegree < cfg.HeavyDegree {
		t.Fatalf("max client degree %d below heavy %d", st.MaxClientDegree, cfg.HeavyDegree)
	}
	if st.MinClientDegree != topo.MinClientDegree() || st.MaxClientDegree != topo.MaxClientDegree() {
		t.Fatalf("recorded degree bounds [%d,%d] disagree with materialized [%d,%d]",
			topo.MinClientDegree(), topo.MaxClientDegree(), st.MinClientDegree, st.MaxClientDegree)
	}
	// The light servers have exactly LightDegree clients each.
	pool := cfg.N - cfg.LightServers
	for u := pool; u < cfg.N; u++ {
		if d := g.ServerDegree(u); d != cfg.LightDegree {
			t.Fatalf("light server %d degree %d, want %d", u, d, cfg.LightDegree)
		}
	}
	// Per-client degrees agree between implicit and materialized views.
	for v := 0; v < cfg.N; v++ {
		if topo.ClientDegree(v) != g.ClientDegree(v) {
			t.Fatalf("client %d: implicit degree %d, materialized %d", v, topo.ClientDegree(v), g.ClientDegree(v))
		}
	}
}

func TestMaterializeOfGraphIsIdentity(t *testing.T) {
	topo, err := RegularImplicit(64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topo.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	again, err := bipartite.Materialize(g)
	if err != nil {
		t.Fatal(err)
	}
	if again != g {
		t.Fatal("Materialize of a *Graph should return it unchanged")
	}
}

// TestImplicitMemoryGuard is the peak-memory guard of the implicit layer:
// at n = 2^18 with Δ = log² n, constructing the implicit topologies must
// allocate less than 10% of the bytes the materialized CSR graph would
// need for its edge arrays alone (2 directions × 4 bytes × n·Δ). This is
// the property that lets million-client full-mode sweeps run on a small
// box.
func TestImplicitMemoryGuard(t *testing.T) {
	n := 1 << 18
	logn := math.Log2(float64(n))
	delta := int(math.Ceil(logn * logn)) // 324
	csrBytes := uint64(2) * 4 * uint64(n) * uint64(delta)
	budget := csrBytes / 10

	measure := func(name string, build func() (*Implicit, error)) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		topo, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runtime.ReadMemStats(&after)
		allocated := after.TotalAlloc - before.TotalAlloc
		if allocated >= budget {
			t.Errorf("%s: allocated %d bytes, want < %d (10%% of the %d-byte CSR edge arrays)",
				name, allocated, budget, csrBytes)
		}
		// The topology must actually be able to serve rows.
		row := topo.AppendClientNeighbors(n/2, nil)
		if len(row) == 0 {
			t.Errorf("%s: empty row for client %d", name, n/2)
		}
		runtime.KeepAlive(topo)
	}

	measure("regular", func() (*Implicit, error) { return RegularImplicit(n, delta, 11) })
	measure("erdos-renyi", func() (*Implicit, error) {
		return ErdosRenyiImplicit(n, n, float64(delta)/float64(n), true, 11)
	})
}

// TestAlmostRegularImplicitRejectsOversizedLightDegree guards the
// validation bound: a LightDegree larger than the client count can never
// find enough distinct clients, and both constructors must reject the
// config with an error instead of hanging (implicit) or panicking
// (materialized).
func TestAlmostRegularImplicitRejectsOversizedLightDegree(t *testing.T) {
	cfg := AlmostRegularConfig{N: 4, BaseDegree: 2, LightServers: 1, LightDegree: 10}
	if _, err := AlmostRegularImplicit(cfg, 1); err == nil {
		t.Error("AlmostRegularImplicit accepted LightDegree > N")
	}
	if _, err := AlmostRegular(cfg, nil); err == nil {
		t.Error("AlmostRegular accepted LightDegree > N")
	}
}
