package gen

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// TestSampleRowNoDuplicates checks the without-replacement contract of
// the Feistel partial shuffle across row sizes, including k = pool (a
// full permutation) and tiny pools.
func TestSampleRowNoDuplicates(t *testing.T) {
	cases := []struct{ pool, k int }{
		{1, 1}, {2, 2}, {7, 3}, {64, 8}, {100, 100}, {1000, 1},
		{1 << 12, 169}, {1 << 12, 1 << 12}, {4097, 2048},
	}
	for _, tc := range cases {
		for seed := uint64(0); seed < 5; seed++ {
			s := rng.StreamAt(seed, 0)
			row := SampleRow(&s, tc.pool, tc.k, nil)
			if len(row) != tc.k {
				t.Fatalf("pool=%d k=%d seed=%d: row length %d", tc.pool, tc.k, seed, len(row))
			}
			seen := make(map[int32]bool, tc.k)
			for _, u := range row {
				if u < 0 || int(u) >= tc.pool {
					t.Fatalf("pool=%d k=%d seed=%d: value %d out of range", tc.pool, tc.k, seed, u)
				}
				if seen[u] {
					t.Fatalf("pool=%d k=%d seed=%d: duplicate value %d", tc.pool, tc.k, seed, u)
				}
				seen[u] = true
			}
		}
	}
}

func TestSampleRowPanicsWhenKExceedsPool(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleRow accepted k > pool")
		}
	}()
	s := rng.StreamAt(1, 0)
	SampleRow(&s, 4, 5, nil)
}

// TestSampleRowDeterministicFromStreamAt is the regeneration contract:
// the row is a pure function of the (seed, client) stream, so re-deriving
// the stream and resampling must reproduce it exactly — and consuming the
// stream differently (a different client index or seed) must not.
func TestSampleRowDeterministicFromStreamAt(t *testing.T) {
	const pool, k = 1 << 10, 60
	for client := 0; client < 50; client++ {
		s1 := rng.StreamAt(0xFACE, client)
		s2 := rng.StreamAt(0xFACE, client)
		a := SampleRow(&s1, pool, k, nil)
		b := SampleRow(&s2, pool, k, nil)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("client %d: regenerated row diverges at slot %d: %d vs %d", client, i, a[i], b[i])
			}
		}
	}
	s1 := rng.StreamAt(0xFACE, 1)
	s2 := rng.StreamAt(0xFACE, 2)
	a := SampleRow(&s1, pool, k, nil)
	b := SampleRow(&s2, pool, k, nil)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct clients produced identical rows")
	}
}

// TestSampleRowUniformCoverage is the distribution sanity check: across
// many independent clients, every server of the pool should be sampled
// with frequency close to k/pool. The dup-scan reference (distinctRow) is
// run through the identical harness, so the test also demonstrates the
// equivalence of the two samplers where their representations overlap:
// both emit exact k-subsets with near-uniform per-server inclusion; only
// the within-row order and the per-row cost differ.
func TestSampleRowUniformCoverage(t *testing.T) {
	const (
		pool    = 128
		k       = 16
		clients = 8000
	)
	samplers := []struct {
		name string
		row  func(s *rng.Stream, buf []int32) []int32
	}{
		{"feistel-partial-shuffle", func(s *rng.Stream, buf []int32) []int32 { return SampleRow(s, pool, k, buf) }},
		{"dup-scan-reference", func(s *rng.Stream, buf []int32) []int32 { return distinctRow(s, pool, k, buf) }},
	}
	for _, sp := range samplers {
		t.Run(sp.name, func(t *testing.T) {
			counts := make([]int, pool)
			var buf []int32
			for v := 0; v < clients; v++ {
				s := rng.StreamAt(0xC0FFEE, v)
				buf = sp.row(&s, buf[:0])
				for _, u := range buf {
					counts[u]++
				}
			}
			// Each server's inclusion count is Binomial(clients, k/pool):
			// mean 1000, σ ≈ 29.6. Allow ±6σ — a generous band that still
			// catches any systematic bias of the keyed permutation.
			mean := float64(clients) * k / pool
			sigma := math.Sqrt(float64(clients) * (k / float64(pool)) * (1 - k/float64(pool)))
			for u, c := range counts {
				if math.Abs(float64(c)-mean) > 6*sigma {
					t.Errorf("server %d sampled %d times, want %.0f ± %.0f", u, c, mean, 6*sigma)
				}
			}
		})
	}
}

func TestTrustSubsetImplicitStructure(t *testing.T) {
	nc, ns, k := 300, 200, 17
	topo, err := TrustSubsetImplicit(nc, ns, k, 99)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumClients() != nc || topo.NumServers() != ns {
		t.Fatalf("wrong sides %d x %d", topo.NumClients(), topo.NumServers())
	}
	if topo.MinClientDegree() != k || topo.MaxClientDegree() != k {
		t.Fatalf("degree bounds [%d,%d], want [%d,%d]", topo.MinClientDegree(), topo.MaxClientDegree(), k, k)
	}
	g, err := topo.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < nc; v++ {
		row := topo.AppendClientNeighbors(v, nil)
		if len(row) != k {
			t.Fatalf("client %d degree %d, want %d", v, len(row), k)
		}
		got := g.ClientNeighbors(v)
		for i := range row {
			if got[i] != row[i] {
				t.Fatalf("client %d slot %d: CSR %d, implicit %d", v, i, got[i], row[i])
			}
		}
		seen := make(map[int32]bool, k)
		for _, u := range row {
			if seen[u] {
				t.Fatalf("client %d trusts server %d twice", v, u)
			}
			seen[u] = true
		}
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrustSubsetImplicitRejectsBadConfig(t *testing.T) {
	if _, err := TrustSubsetImplicit(0, 10, 2, 1); err == nil {
		t.Error("accepted zero clients")
	}
	if _, err := TrustSubsetImplicit(10, 10, 0, 1); err == nil {
		t.Error("accepted k = 0")
	}
	if _, err := TrustSubsetImplicit(10, 10, 11, 1); err == nil {
		t.Error("accepted k > numServers")
	}
}

// BenchmarkRowSamplers contrasts the O(k) Feistel partial shuffle with
// the O(k²) dup-scan it replaced, at the Δ = log² n row sizes the
// experiments use (and the Θ(√n) heavy-client size of the almost-regular
// family). The measured ratio is recorded in PERFORMANCE.md.
func BenchmarkRowSamplers(b *testing.B) {
	cases := []struct {
		name    string
		pool, k int
	}{
		{"n=2^13/delta=169", 1 << 13, 169}, // log²(8192) = 169
		{"n=2^18/delta=324", 1 << 18, 324}, // log²(262144) = 324
		{"n=2^18/heavy=512", 1 << 18, 512}, // √(262144) = 512
	}
	for _, tc := range cases {
		b.Run("feistel/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]int32, 0, tc.k)
			for i := 0; i < b.N; i++ {
				s := rng.StreamAt(7, i)
				buf = SampleRow(&s, tc.pool, tc.k, buf[:0])
			}
		})
		b.Run("dup-scan/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]int32, 0, tc.k)
			for i := 0; i < b.N; i++ {
				s := rng.StreamAt(7, i)
				buf = distinctRow(&s, tc.pool, tc.k, buf[:0])
			}
		})
	}
}

// BenchmarkAlmostRegularImplicitRegen measures the per-row regeneration
// cost of the almost-regular family's heavy clients, the rows whose
// O(degree²) dup-scan previously kept the family materialized.
func BenchmarkAlmostRegularImplicitRegen(b *testing.B) {
	cfg := DefaultAlmostRegularConfig(1 << 16)
	topo, err := AlmostRegularImplicit(cfg, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("heavy/deg=%d", cfg.HeavyDegree), func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]int32, 0, cfg.HeavyDegree+8)
		for i := 0; i < b.N; i++ {
			buf = topo.AppendClientNeighbors(0, buf[:0])
		}
	})
	b.Run(fmt.Sprintf("base/deg=%d", cfg.BaseDegree), func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]int32, 0, cfg.BaseDegree+8)
		for i := 0; i < b.N; i++ {
			buf = topo.AppendClientNeighbors(cfg.HeavyClients, buf[:0])
		}
	})
}

// BenchmarkFeistelRow measures the lockstep row kernel per row entry at
// k = 256, the churn-rows row width (Δ = log² 2¹⁶). "sample" is a
// SampleRow partial-shuffle row (one permutation, images of 0…255);
// "regular" is a RegularImplicit row (one client through 256
// permutations). Pools 2¹⁶ and 2¹⁸ have even bit width and never walk;
// 2¹⁶+1, 2¹⁷ and 70,000 pad to 2¹⁸ and cycle-walk back into the pool.
func BenchmarkFeistelRow(b *testing.B) {
	const k = 256
	for _, pool := range []int{1 << 16, 1<<16 + 1, 1 << 17, 70000, 1 << 18} {
		b.Run(fmt.Sprintf("sample/pool=%d", pool), func(b *testing.B) {
			buf := make([]int32, 0, k)
			i := 0
			for b.Loop() {
				s := rng.StreamAt(7, i)
				buf = SampleRow(&s, pool, k, buf[:0])
				i++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(i*k), "ns/edge")
		})
		b.Run(fmt.Sprintf("regular/pool=%d", pool), func(b *testing.B) {
			topo, err := RegularImplicit(pool, k, 7)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]int32, 0, k)
			i := 0
			for b.Loop() {
				buf = topo.AppendClientNeighbors(i%pool, buf[:0])
				i++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(i*k), "ns/edge")
		})
	}
}
