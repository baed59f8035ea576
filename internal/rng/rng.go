// Package rng provides deterministic, splittable pseudo-random number
// generation for the simulator.
//
// Every stochastic component of the reproduction (graph generation, the
// SAER/RAES protocols, the baselines, the experiment harness) draws its
// randomness from this package rather than from math/rand so that:
//
//   - a run is fully determined by a single 64-bit seed,
//   - independent entities (clients, trials, workers) receive independent
//     streams that do not interact, which makes parallel execution
//     bit-for-bit reproducible regardless of scheduling, and
//   - the generators are allocation-free in the hot path.
//
// The core generator is xoshiro256**, seeded through SplitMix64 as
// recommended by its authors. Both are tiny, fast, and comfortably good
// enough for Monte-Carlo simulation (they are not cryptographic).
package rng

import (
	"math"
	"math/bits"
)

// SplitMix64 advances a SplitMix64 state and returns the next output.
// It is used to expand a single seed into the four xoshiro words and to
// derive independent per-stream seeds. It is exported for the keyed
// permutations and samplers of internal/gen, which derive their round
// keys from the same scrambler (previously a private copy flagged as
// duplicated); everything else should draw from Source or Stream.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256** pseudo-random generator. The zero value is not
// usable; construct one with New or derive one with Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed. Distinct seeds yield streams that
// are, for simulation purposes, independent.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed reinitializes the source in place from seed.
func (r *Source) Reseed(seed uint64) {
	sm := seed
	r.s0 = SplitMix64(&sm)
	r.s1 = SplitMix64(&sm)
	r.s2 = SplitMix64(&sm)
	r.s3 = SplitMix64(&sm)
	// xoshiro must not be seeded with the all-zero state. SplitMix64 cannot
	// produce four consecutive zeros, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Source) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Split derives a new Source whose stream is independent of the receiver's
// future output. It consumes one value from the receiver. Splitting is the
// mechanism used to hand each client, trial and worker its own stream.
func (r *Source) Split() *Source {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// SplitN derives n independent sources in one call.
func (r *Source) SplitN(n int) []*Source {
	out := make([]*Source, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// NewStreams returns n independent value Sources derived from seed, laid
// out contiguously. It is the allocation-friendly form used to give every
// client of a simulation its own stream: the i-th stream depends only on
// (seed, i), never on how many workers consume the slice, which keeps
// parallel simulations deterministic.
func NewStreams(seed uint64, n int) []Source {
	out := make([]Source, n)
	sm := seed ^ 0xa0761d6478bd642f
	for i := range out {
		out[i].Reseed(SplitMix64(&sm))
	}
	return out
}

// Stream is a compact per-entity pseudo-random generator: a SplitMix64
// sequence whose 8-byte state is the whole generator. Simulations that
// keep one private stream per client use Stream instead of Source because
// initialization is a single multiply-free assignment (Source needs five
// SplitMix64 expansions to fill the xoshiro state) and a million streams
// occupy 8 MB instead of 32 MB — both matter when a Runner is reseeded
// once per Monte-Carlo trial. SplitMix64 is a bijective scramble of a
// 64-bit counter with full period 2⁶⁴; its statistical quality is ample
// for Monte-Carlo choice-drawing (it is the generator recommended to seed
// xoshiro itself).
type Stream struct {
	state uint64
}

// Uint64 returns the next 64 pseudo-random bits of the stream.
func (s *Stream) Uint64() uint64 {
	return SplitMix64(&s.state)
}

// Intn returns a uniform integer in [0, n) drawn from the stream. It
// panics if n <= 0.
//
// The body deliberately duplicates Source.Intn's Lemire multiply-shift
// rejection rather than sharing it through a function value or generic:
// this is the simulator's innermost loop, and the copy keeps every draw
// a direct call on the concrete receiver, with no function value or
// interface to go through. It is not inlined; its cost exceeds the
// compiler's budget. Any change to the rejection logic must be applied
// to both copies.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	un := uint64(n)
	v := s.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		threshold := (-un) % un
		for lo < threshold {
			v = s.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1) drawn from the stream.
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// StreamAt returns the i-th Stream of the family that
// ReseedStreamSlice(streams, seed) produces, computed in O(1): the
// SplitMix64 state advance is linear, so the i-th starting state is one
// scramble of seed ^ streamSeedSalt + i·golden. It is what lets implicit
// topologies regenerate client i's private stream on demand without
// storing (or sequentially deriving) the i-1 streams before it.
func StreamAt(seed uint64, i int) Stream {
	sm := (seed ^ streamSeedSalt) + uint64(i)*0x9e3779b97f4a7c15
	return Stream{state: SplitMix64(&sm)}
}

// streamSeedSalt decorrelates the stream family of a seed from the direct
// SplitMix64 sequence of the same seed.
const streamSeedSalt = 0xa0761d6478bd642f

// ReseedStreamSlice reinitializes n per-entity Streams in place from seed.
// The i-th stream depends only on (seed, i) — never on the worker count
// consuming the slice — which is what keeps parallel simulations
// deterministic. Distinct entities receive starting states one SplitMix64
// scramble apart, i.e. distant, well-mixed points of the full-period
// sequence.
func ReseedStreamSlice(streams []Stream, seed uint64) {
	sm := seed ^ streamSeedSalt
	for i := range streams {
		streams[i].state = SplitMix64(&sm)
	}
}

// NewStreamSlice allocates and seeds n per-entity Streams.
func NewStreamSlice(seed uint64, n int) []Stream {
	out := make([]Stream, n)
	ReseedStreamSlice(out, seed)
	return out
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method keeps the result unbiased
// without a modulo in the common case. Stream.Intn carries a copy of
// this body (see its comment for why); keep the two in sync.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		threshold := (-un) % un
		for lo < threshold {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Source) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability 1/2.
func (r *Source) Bool() bool {
	return r.Uint64()&1 == 1
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniform random permutation of [0, n) as a slice.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes the elements of p uniformly at random in place
// (Fisher–Yates).
func (r *Source) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// ShuffleInt32 permutes the elements of p uniformly at random in place.
// Graph generators keep adjacency as int32 to halve memory traffic.
func (r *Source) ShuffleInt32(p []int32) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Sample returns k distinct integers drawn uniformly at random from [0, n)
// without replacement. It panics if k > n or k < 0.
// For small k relative to n it uses rejection from a set; otherwise it
// uses a partial Fisher–Yates over a fresh index slice.
func (r *Source) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample called with k out of range")
	}
	if k == 0 {
		return nil
	}
	if k*4 <= n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			x := r.Intn(n)
			if _, dup := seen[x]; dup {
				continue
			}
			seen[x] = struct{}{}
			out = append(out, x)
		}
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// Binomial returns a sample from Binomial(n, p) by direct simulation.
// It is intended for the moderate n used in tests and workload generation,
// not as a high-performance sampler.
func (r *Source) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	count := 0
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			count++
		}
	}
	return count
}

// Poisson returns a sample from Poisson(lambda). Knuth's product method
// is applied to chunks of at most 30 (e^-λ underflows for large λ, and
// Poisson variables are additive, so summing chunk samples is exact).
// It is intended for the arrival processes of the churn scenarios, where
// λ is the per-epoch arrival rate — at most a few thousand.
func (r *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	const chunk = 30
	count := 0
	for lambda > chunk {
		count += r.poissonKnuth(chunk)
		lambda -= chunk
	}
	return count + r.poissonKnuth(lambda)
}

// poissonKnuth samples Poisson(lambda) for lambda small enough that
// e^-lambda stays comfortably above the subnormal range.
func (r *Source) poissonKnuth(lambda float64) int {
	limit := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success (support {0, 1, 2, ...}). It panics if p <= 0 or p > 1.
func (r *Source) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric requires 0 < p <= 1")
	}
	count := 0
	for !r.Bernoulli(p) {
		count++
	}
	return count
}

// NormFloat64 returns a standard normal sample using the polar
// (Marsaglia) method. Used only for workload jitter in examples.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}
