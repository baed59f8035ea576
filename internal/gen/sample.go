package gen

import (
	"fmt"

	"repro/internal/rng"
)

// This file contains the without-replacement row sampler shared by the
// implicit topologies whose clients pick k distinct servers from a pool
// (trust-subset, almost-regular). The previous implementation rejected
// duplicates against a linear scan of the row drawn so far (distinctRow
// in implicit.go, kept as the test reference), which costs O(k²) per
// regeneration — quadratic in the degree, the reason heavy Θ(√n)-degree
// clients and trust-subset families could not go implicit. SampleRow
// replaces it with a partial shuffle over a keyed permutation: the row is
// the image of 0, 1, …, k−1 under a Feistel permutation of [0, pool)
// keyed from the client's stream, so each regeneration costs O(k) Feistel
// applications, allocates nothing, and needs no per-row dedup state at
// all — a k-subset in pseudo-random order, exactly like the prefix of a
// Fisher–Yates shuffle of the pool. The row runs through the AVX-512
// prefix kernel, 16 images per block, where the CPU has it, and through
// the lockstep kernel, four images per step, elsewhere and for the tail.
// BenchmarkFeistelRow on a 2-vCPU Xeon VM with AVX-512 puts a 256-entry
// row at 3–4 ns per entry on pools of even bit width (2¹⁶, 2¹⁸), and at
// 42–102 ns on odd widths (2¹⁶+1, 2¹⁷, 70,000), where the images
// cycle-walk back into the pool one at a time (PERFORMANCE.md).

// SampleRow appends k distinct values from [0, pool) to buf, drawn as
// the first k images of a pseudo-random permutation keyed by the next
// value of s. It panics if k > pool (mirroring rng.Source.Sample's
// contract: fewer than k distinct values exist). It is exported for the
// churn subsystem (internal/churn), whose per-(epoch, client) rewiring
// samplers regenerate rows through exactly this machinery.
func SampleRow(s *rng.Stream, pool, k int, buf []int32) []int32 {
	if k > pool {
		panic("gen: SampleRow called with k > pool")
	}
	f := newFeistel(pool, s.Uint64())
	return f.appendPrefix(buf, k)
}

// SampleAt returns element i of the row SampleRow(s, pool, k, nil)
// for any k > i, without generating the other k−1 entries: the row is a
// permutation prefix, so entry i is the single Feistel image of i. It
// consumes the same one stream value as SampleRow (the permutation
// key), leaving s in the same state — which is what lets point queries
// and whole-row regeneration coexist against one per-client stream. It
// is exported for internal/churn, whose rewired clients answer point
// queries through exactly this identity.
func SampleAt(s *rng.Stream, pool, i int) int32 {
	f := newFeistel(pool, s.Uint64())
	return int32(f.apply(uint64(i)))
}

// TrustSubsetImplicit returns the implicit counterpart of TrustSubset:
// every client trusts k servers chosen without replacement from
// [0, numServers), regenerated on demand from the client's
// O(1)-derivable stream via the Feistel partial shuffle. Every client
// has degree exactly k, so the topology stores O(1) state — no degree
// table, no edges. Note the sampler differs from the materialized
// TrustSubset (which draws through rng.Source.Sample), so the two
// constructors describe different graphs of the same distribution; the
// implicit topology's materialized twin is Materialize, as for every
// Implicit family.
func TrustSubsetImplicit(numClients, numServers, k int, seed uint64) (*Implicit, error) {
	if numClients <= 0 || numServers <= 0 {
		return nil, fmt.Errorf("gen: TrustSubsetImplicit requires positive sides, got %d clients %d servers", numClients, numServers)
	}
	if k <= 0 || k > numServers {
		return nil, fmt.Errorf("gen: TrustSubsetImplicit requires 0 < k <= numServers, got k=%d numServers=%d", k, numServers)
	}
	return &Implicit{
		kind:       fmt.Sprintf("trust-subset k=%d", k),
		numClients: numClients,
		numServers: numServers,
		minDeg:     k,
		maxDeg:     k,
		degree:     func(int) int { return k },
		row: func(v int, buf []int32) []int32 {
			s := rng.StreamAt(seed, v)
			return SampleRow(&s, numServers, k, buf)
		},
		at: func(v, i int) int32 {
			s := rng.StreamAt(seed, v)
			return SampleAt(&s, numServers, i)
		},
	}, nil
}
