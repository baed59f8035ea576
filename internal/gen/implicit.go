package gen

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/cpufeat"
	"repro/internal/rng"
)

// This file contains the implicit (regenerative) topologies: graph
// families whose client neighborhoods are recomputed on demand from a
// per-client random stream instead of being stored. An Implicit topology
// keeps O(n) state (per-client degrees, a handful of permutation keys, a
// tiny edge overlay) where the materialized CSR Graph keeps O(n·Δ) edge
// words — at n = 2²⁰ and Δ = log² n that is a few megabytes against
// several gigabytes, which is what makes million-client protocol sweeps
// fit on a small machine.
//
// Every Implicit constructor has a materialized twin: Materialize (or
// bipartite.Materialize) iterates the same row sampler into a CSR Graph,
// so the two representations describe the *identical* edge multiset in
// the identical per-client order. The protocol equivalence tests in
// internal/core rely on this to check that simulation Results are
// bit-for-bit equal across representations.

// Implicit is a bipartite topology whose client rows are produced by a
// deterministic sampler. It implements bipartite.Topology and is safe for
// concurrent readers: row regeneration only reads shared immutable state.
type Implicit struct {
	kind       string
	numClients int
	numServers int
	minDeg     int
	maxDeg     int

	// degree reports |N(v)|; it must agree with len(row(v)).
	degree func(v int) int
	// row appends N(v) to buf in the topology's canonical order.
	row func(v int, buf []int32) []int32
	// at returns row(v, nil)[i] in O(1) without generating the rest of
	// the row, for the families whose rows are images of keyed
	// permutations (regular: row[i] = π_i(v); partial-shuffle families:
	// row[i] = f_v(i)). Nil for families that can only produce rows
	// sequentially (Erdős–Rényi skip-sampling), which then report
	// CanPointQuery() == false and keep the row-regeneration path.
	at func(v, i int) int32
	// neighborsAt answers a batch of point queries at once (regular:
	// the keyed kernel). Nil when the family loops over at.
	neighborsAt func(vs, idx, out []int32)

	// serverDegFn computes the exact per-server degree table for the
	// families whose threshold prescriptions need measured server degrees
	// (almost-regular, for E8's Lemma-19 c). The O(n·Δ) row pass runs
	// lazily on the first DegreeStats call (serverDegOnce), so callers
	// that never ask for statistics keep the constructor's original cost.
	// Nil when the family records no table.
	serverDegFn   func() []int32
	serverDegOnce sync.Once
	serverDeg     []int32
	// uniformServerDeg, when > 0, states that every server has exactly
	// this degree (regular: the union of perfect matchings). It answers
	// DegreeStats in O(n) without a table.
	uniformServerDeg int
}

var _ bipartite.Topology = (*Implicit)(nil)

// NumClients returns the number of clients.
func (t *Implicit) NumClients() int { return t.numClients }

// NumServers returns the number of servers.
func (t *Implicit) NumServers() int { return t.numServers }

// ClientDegree returns |N(v)|.
func (t *Implicit) ClientDegree(v int) int { return t.degree(v) }

// MinClientDegree returns the smallest client degree (exact; recorded at
// construction).
func (t *Implicit) MinClientDegree() int { return t.minDeg }

// MaxClientDegree returns the largest client degree (exact; recorded at
// construction).
func (t *Implicit) MaxClientDegree() int { return t.maxDeg }

// AppendClientNeighbors regenerates client v's neighborhood into buf.
func (t *Implicit) AppendClientNeighbors(v int, buf []int32) []int32 {
	return t.row(v, buf)
}

// Validate answers from construction-time guarantees in O(1).
func (t *Implicit) Validate() error {
	if t.numClients <= 0 || t.numServers <= 0 {
		return bipartite.ErrEmptyGraph
	}
	if t.minDeg <= 0 {
		return bipartite.ErrIsolatedClient
	}
	return nil
}

// NumEdges returns the total number of edges (Σ_v |N(v)|). Uniform-
// degree families (regular, trust-subset: minDeg == maxDeg by
// construction) answer in O(1); the rest sum their degree table.
func (t *Implicit) NumEdges() int {
	if t.minDeg == t.maxDeg {
		return t.numClients * t.minDeg
	}
	total := 0
	for v := 0; v < t.numClients; v++ {
		total += t.degree(v)
	}
	return total
}

// CanPointQuery reports whether the family supports O(1) point queries
// (see bipartite.PointQueryable); queryability is fixed at construction.
func (t *Implicit) CanPointQuery() bool { return t.at != nil }

// NeighborAt returns row(v)[i] in O(1). It must only be called when
// CanPointQuery reports true.
func (t *Implicit) NeighborAt(v, i int) int32 { return t.at(v, i) }

// NeighborsAt sets out[j] = NeighborAt(vs[j], idx[j]) for every j; vs
// and idx must be at least as long as out. The regular family answers
// the batch through the keyed kernel. The partial-shuffle families loop
// over NeighborAt, because each lane derives its own key from its
// client's stream.
func (t *Implicit) NeighborsAt(vs, idx, out []int32) {
	if t.neighborsAt != nil {
		t.neighborsAt(vs, idx, out)
		return
	}
	vs, idx = vs[:len(out)], idx[:len(out)]
	for j := range out {
		out[j] = t.at(int(vs[j]), int(idx[j]))
	}
}

var _ bipartite.PointQueryable = (*Implicit)(nil)

// Materialize builds the CSR twin of the topology: the same edges in the
// same per-client order, stored explicitly.
func (t *Implicit) Materialize() (*bipartite.Graph, error) {
	return bipartite.Materialize(t)
}

// DegreeStats returns the exact degree statistics of the topology when
// the family can answer without materializing: regular families know
// every degree by construction, and almost-regular computes its exact
// per-server degree table on the first call (one O(n·Δ) row pass,
// memoized through sync.Once — safe under concurrent readers). ok is
// false for the families that do not (Erdős–Rényi, trust-subset), whose
// server degrees would need a materialization-grade scan per use.
func (t *Implicit) DegreeStats() (bipartite.DegreeStats, bool) {
	var sdeg func(int) int
	switch {
	case t.serverDegFn != nil:
		t.serverDegOnce.Do(func() { t.serverDeg = t.serverDegFn() })
		sdeg = func(u int) int { return int(t.serverDeg[u]) }
	case t.uniformServerDeg > 0:
		sdeg = func(int) int { return t.uniformServerDeg }
	default:
		return bipartite.DegreeStats{}, false
	}
	return bipartite.DegreeStatsOf(t.numClients, t.numServers, t.degree, sdeg), true
}

var _ bipartite.DegreeStatser = (*Implicit)(nil)

// String returns a short human-readable summary.
func (t *Implicit) String() string {
	return fmt.Sprintf("implicit{%s clients=%d servers=%d degC=[%d,%d]}",
		t.kind, t.numClients, t.numServers, t.minDeg, t.maxDeg)
}

// ---------------------------------------------------------------------------
// Random Δ-regular: union of Δ keyed pseudo-random perfect matchings.

// feistel is a keyed pseudo-random permutation of [0, domain) built as a
// four-round balanced Feistel network over 2·halfBits bits with
// cycle-walking down to the requested domain. Four rounds of a SplitMix64
// round function are ample for simulation-grade mixing, and the whole
// permutation is 40 bytes of state — which is how the implicit Δ-regular
// topology stores Δ perfect matchings in O(Δ) memory instead of O(n·Δ).
type feistel struct {
	halfBits uint
	mask     uint32
	domain   uint64
	keys     [4]uint64
}

// newFeistel returns the permutation of [0, n) keyed by seed.
func newFeistel(n int, seed uint64) feistel {
	b := uint(bits.Len64(uint64(n - 1)))
	if n <= 1 {
		b = 1
	}
	if b%2 == 1 {
		b++
	}
	f := feistel{
		halfBits: b / 2,
		mask:     uint32(1<<(b/2)) - 1,
		domain:   uint64(n),
	}
	sm := seed
	for i := range f.keys {
		f.keys[i] = rng.SplitMix64(&sm)
	}
	return f
}

// roundMix is the Feistel round function before truncation: a
// SplitMix-style scramble of the half-block mixed with the round key.
func roundMix(r uint32, key uint64) uint32 {
	z := uint64(r) + key
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return uint32(z)
}

// applyOnce runs the network once over the padded power-of-two domain.
func (f *feistel) applyOnce(x uint64) uint64 {
	l := uint32(x>>f.halfBits) & f.mask
	r := uint32(x) & f.mask
	for i := 0; i < 4; i++ {
		l, r = r, l^roundMix(r, f.keys[i])&f.mask
	}
	return uint64(l)<<f.halfBits | uint64(r)
}

// apply maps x ∈ [0, domain) to its image under the permutation. It is
// the scalar reference every kernel (lockstep and the AVX-512 kernels)
// must match, and the point-query path (SampleAt, NeighborAt).
func (f *feistel) apply(x uint64) uint64 {
	return f.walk(f.applyOnce(x))
}

// walk takes the output y of a network pass, which may lie anywhere in
// the padded domain, and cycle-walks it back into [0, domain), one pass
// per step. The padded domain is < 4·domain, so a walk takes fewer than
// 3 steps in expectation.
func (f *feistel) walk(y uint64) uint64 {
	for y >= f.domain {
		y = f.applyOnce(y)
	}
	return y
}

// walks reports whether a network pass can land outside the domain:
// the padded domain 2^(2·halfBits) is larger than the pool.
func (f *feistel) walks() bool { return uint64(1)<<(2*f.halfBits) != f.domain }

// lockstep is the portable row kernel, and the tail of the AVX-512
// kernels' rows: lane j maps x_j to p_j.apply(x_j), bit for bit, so each
// x_j must lie in [0, domain) as for apply. The four permutations share one shape (newFeistel over one
// domain) and may differ in their keys. A scalar
// pass is one dependent chain of eight multiplies; here the four lanes'
// rounds interleave, with halves and round keys in locals, so the four
// chains overlap. Lanes that leave the domain then finish one at a time
// with apply's cycle walk.
func lockstep(p0, p1, p2, p3 *feistel, x0, x1, x2, x3 uint64) (y0, y1, y2, y3 uint64) {
	hb, mask := p0.halfBits, p0.mask
	a0, a1, a2, a3 := p0.keys[0], p0.keys[1], p0.keys[2], p0.keys[3]
	b0, b1, b2, b3 := p1.keys[0], p1.keys[1], p1.keys[2], p1.keys[3]
	c0, c1, c2, c3 := p2.keys[0], p2.keys[1], p2.keys[2], p2.keys[3]
	d0, d1, d2, d3 := p3.keys[0], p3.keys[1], p3.keys[2], p3.keys[3]
	l0, r0 := uint32(x0>>hb)&mask, uint32(x0)&mask
	l1, r1 := uint32(x1>>hb)&mask, uint32(x1)&mask
	l2, r2 := uint32(x2>>hb)&mask, uint32(x2)&mask
	l3, r3 := uint32(x3>>hb)&mask, uint32(x3)&mask
	l0, r0 = r0, l0^roundMix(r0, a0)&mask
	l1, r1 = r1, l1^roundMix(r1, b0)&mask
	l2, r2 = r2, l2^roundMix(r2, c0)&mask
	l3, r3 = r3, l3^roundMix(r3, d0)&mask
	l0, r0 = r0, l0^roundMix(r0, a1)&mask
	l1, r1 = r1, l1^roundMix(r1, b1)&mask
	l2, r2 = r2, l2^roundMix(r2, c1)&mask
	l3, r3 = r3, l3^roundMix(r3, d1)&mask
	l0, r0 = r0, l0^roundMix(r0, a2)&mask
	l1, r1 = r1, l1^roundMix(r1, b2)&mask
	l2, r2 = r2, l2^roundMix(r2, c2)&mask
	l3, r3 = r3, l3^roundMix(r3, d2)&mask
	l0, r0 = r0, l0^roundMix(r0, a3)&mask
	l1, r1 = r1, l1^roundMix(r1, b3)&mask
	l2, r2 = r2, l2^roundMix(r2, c3)&mask
	l3, r3 = r3, l3^roundMix(r3, d3)&mask
	return p0.walk(uint64(l0)<<hb | uint64(r0)), p1.walk(uint64(l1)<<hb | uint64(r1)),
		p2.walk(uint64(l2)<<hb | uint64(r2)), p3.walk(uint64(l3)<<hb | uint64(r3))
}

// appendPrefix appends the images of 0, 1, …, k−1 under f. Where the
// CPU has AVX-512 (cpufeat), whole blocks of 16 go through the prefix
// kernel; the last k mod 16 entries, and every entry elsewhere, go
// through appendRange.
func (f *feistel) appendPrefix(buf []int32, k int) []int32 {
	i := 0
	if cpufeat.AVX512() {
		i = k &^ 15
		buf = f.appendPrefixAVX512(buf, i)
	}
	return f.appendRange(buf, i, k)
}

// appendRange appends the images of lo, lo+1, …, hi−1 under f, four per
// lockstep step; the last (hi−lo) mod 4 entries go through apply. It is
// the portable row path.
func (f *feistel) appendRange(buf []int32, lo, hi int) []int32 {
	i := lo
	for ; i+4 <= hi; i += 4 {
		x := uint64(i)
		y0, y1, y2, y3 := lockstep(f, f, f, f, x, x+1, x+2, x+3)
		buf = append(buf, int32(y0), int32(y1), int32(y2), int32(y3))
	}
	for ; i < hi; i++ {
		buf = append(buf, int32(f.apply(uint64(i))))
	}
	return buf
}

// appendPrefixAVX512 appends the images of 0, 1, …, n−1 under f through
// the prefix kernel; n must be a multiple of 16. Lanes that land outside
// the pool finish with the scalar walk, and the check is skipped when
// the padded domain is the pool.
func (f *feistel) appendPrefixAVX512(buf []int32, n int) []int32 {
	if n == 0 {
		return buf
	}
	start := len(buf)
	buf = slices.Grow(buf, n)[:start+n]
	out := buf[start:]
	feistelPrefixAVX512(&f.keys, uint64(f.halfBits), uint64(f.mask), 0, out)
	if f.walks() {
		for j, y := range out {
			if uint64(uint32(y)) >= f.domain {
				out[j] = int32(f.walk(uint64(uint32(y))))
			}
		}
	}
	return buf
}

// appendImagesOf appends the image of x under each permutation of perms,
// in order, four per lockstep step; the last len(perms) mod 4 entries go
// through apply. It is the portable path of matchings.appendRow.
func appendImagesOf(buf []int32, perms []feistel, x uint64) []int32 {
	i := 0
	for ; i+4 <= len(perms); i += 4 {
		p := perms[i : i+4 : i+4]
		y0, y1, y2, y3 := lockstep(&p[0], &p[1], &p[2], &p[3], x, x, x, x)
		buf = append(buf, int32(y0), int32(y1), int32(y2), int32(y3))
	}
	for ; i < len(perms); i++ {
		buf = append(buf, int32(perms[i].apply(x)))
	}
	return buf
}

// matchings is RegularImplicit's family of Δ permutations π_0, …, π_{Δ−1}
// of one pool, perms[k] = π_k, with the same round keys also laid out
// for the keyed kernel.
type matchings struct {
	perms []feistel
	// keys holds the four per-round key arrays, Δ words each:
	// keys[r·Δ+k] = perms[k].keys[r].
	keys []uint64
	// ks is 0, 1, …, Δ−1: the key indices of a whole row.
	ks []int32
}

// newMatchings lays out the round keys of perms, which must share one
// domain, for the keyed kernel.
func newMatchings(perms []feistel) *matchings {
	delta := len(perms)
	m := &matchings{perms: perms, keys: make([]uint64, 4*delta), ks: make([]int32, delta)}
	for k := range perms {
		for r, key := range perms[k].keys {
			m.keys[r*delta+k] = key
		}
		m.ks[k] = int32(k)
	}
	return m
}

// appendRow appends π_0(x), …, π_{Δ−1}(x). Where the CPU has AVX-512,
// whole blocks of 16 go through the keyed kernel with every lane's
// input set to x; the last Δ mod 16 entries, and every entry elsewhere,
// go through appendImagesOf.
func (m *matchings) appendRow(buf []int32, x uint64) []int32 {
	i := 0
	if cpufeat.AVX512() {
		i = len(m.perms) &^ 15
		start := len(buf)
		buf = slices.Grow(buf, i)[:start+i]
		out := buf[start:]
		for j := range out {
			out[j] = int32(x)
		}
		m.keyedAVX512(out, m.ks[:i], out)
	}
	return appendImagesOf(buf, m.perms[i:], x)
}

// neighborsAt sets out[j] = π_{idx[j]}(vs[j]): whole blocks of 16
// through the keyed kernel where the CPU has AVX-512, the rest four per
// lockstep step and then through apply.
func (m *matchings) neighborsAt(vs, idx, out []int32) {
	vs, idx = vs[:len(out)], idx[:len(out)]
	i := 0
	if cpufeat.AVX512() {
		i = len(out) &^ 15
		m.keyedAVX512(vs[:i], idx[:i], out[:i])
	}
	p := m.perms
	for ; i+4 <= len(out); i += 4 {
		y0, y1, y2, y3 := lockstep(&p[idx[i]], &p[idx[i+1]], &p[idx[i+2]], &p[idx[i+3]],
			uint64(vs[i]), uint64(vs[i+1]), uint64(vs[i+2]), uint64(vs[i+3]))
		out[i], out[i+1], out[i+2], out[i+3] = int32(y0), int32(y1), int32(y2), int32(y3)
	}
	for ; i < len(out); i++ {
		out[i] = int32(p[idx[i]].apply(uint64(vs[i])))
	}
}

// keyedAVX512 sets out[j] = π_{ks[j]}(xs[j]) through the keyed kernel;
// len(out) must be a multiple of 16, and xs may be out itself. Lanes
// that land outside the pool finish with their permutation's scalar
// walk, and the check is skipped when the padded domain is the pool.
func (m *matchings) keyedAVX512(xs, ks, out []int32) {
	if len(out) == 0 {
		return
	}
	f := &m.perms[0]
	if !feistelKeyedAVX512(m.keys, uint64(f.halfBits), uint64(f.mask), xs, ks, out) {
		panic("gen: point query index outside the client's row")
	}
	if f.walks() {
		for j, y := range out {
			if uint64(uint32(y)) >= f.domain {
				out[j] = int32(m.perms[ks[j]].walk(uint64(uint32(y))))
			}
		}
	}
}

// RegularImplicit returns the implicit random Δ-regular bipartite
// topology on n clients and n servers: the union of delta keyed
// pseudo-random perfect matchings, the implicit counterpart of the
// permutation model used by Regular. Client v's k-th neighbor is
// π_k(v) where π_k is a keyed permutation of [0, n), so every client and
// every server has degree exactly delta (parallel edges across matchings
// are possible and kept, exactly as in Regular). State is O(delta)
// permutation keys — independent of n.
func RegularImplicit(n, delta int, seed uint64) (*Implicit, error) {
	if n <= 0 {
		return nil, fmt.Errorf("gen: RegularImplicit requires n > 0, got %d", n)
	}
	if delta <= 0 || delta > n {
		return nil, fmt.Errorf("gen: RegularImplicit requires 0 < delta <= n, got delta=%d n=%d", delta, n)
	}
	perms := make([]feistel, delta)
	sm := seed ^ 0x6c62272e07bb0142
	for k := range perms {
		perms[k] = newFeistel(n, rng.SplitMix64(&sm))
	}
	m := newMatchings(perms)
	return &Implicit{
		kind:       fmt.Sprintf("regular delta=%d", delta),
		numClients: n,
		numServers: n,
		minDeg:     delta,
		maxDeg:     delta,
		// A union of delta perfect matchings gives every server degree
		// exactly delta, so exact statistics need no table.
		uniformServerDeg: delta,
		degree:           func(int) int { return delta },
		row: func(v int, buf []int32) []int32 {
			return m.appendRow(buf, uint64(v))
		},
		at: func(v, i int) int32 {
			return int32(perms[i].apply(uint64(v)))
		},
		neighborsAt: m.neighborsAt,
	}, nil
}

// ---------------------------------------------------------------------------
// Erdős–Rényi via per-client skip-sampling.

// ErdosRenyiRow appends client v's G(n, m, p) row — each server present
// independently with probability p, in ascending order — drawn from the
// client's private stream, with the ensure-clients fallback edge when the
// row would be empty. It is the row sampler shared by the implicit
// topology, its materialized twin, and the churn subsystem's
// Erdős–Rényi rewiring sampler (internal/churn).
func ErdosRenyiRow(s *rng.Stream, numServers int, p float64, ensure bool, buf []int32) []int32 {
	start := len(buf)
	if p >= 1 {
		for u := 0; u < numServers; u++ {
			buf = append(buf, int32(u))
		}
		return buf
	}
	if p > 0 {
		u := -1
		for {
			u += 1 + skipFromUniform(s.Float64(), p)
			if u >= numServers {
				break
			}
			buf = append(buf, int32(u))
		}
	}
	if ensure && len(buf) == start {
		buf = append(buf, int32(s.Intn(numServers)))
	}
	return buf
}

// ErdosRenyiImplicit returns the implicit bipartite
// G(numClients, numServers, p) topology: client v's row is regenerated on
// demand by skip-sampling v's private stream (derived in O(1) from the
// seed), so only the per-client degree table — needed for O(1) degree
// queries and validation — is stored. With ensureClients every client that
// would be isolated receives one uniformly random fallback edge, as in
// ErdosRenyi. Construction performs one O(Σ deg) pass to record degrees.
func ErdosRenyiImplicit(numClients, numServers int, p float64, ensureClients bool, seed uint64) (*Implicit, error) {
	if numClients <= 0 || numServers <= 0 {
		return nil, fmt.Errorf("gen: ErdosRenyiImplicit requires positive sides, got %d clients %d servers", numClients, numServers)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("gen: ErdosRenyiImplicit requires p in [0,1], got %v", p)
	}
	row := func(v int, buf []int32) []int32 {
		s := rng.StreamAt(seed, v)
		return ErdosRenyiRow(&s, numServers, p, ensureClients, buf)
	}
	degrees := make([]int32, numClients)
	minDeg, maxDeg := numServers+1, 0
	scratch := make([]int32, 0, 64)
	for v := 0; v < numClients; v++ {
		scratch = row(v, scratch[:0])
		d := len(scratch)
		degrees[v] = int32(d)
		if d < minDeg {
			minDeg = d
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	if minDeg > numServers {
		minDeg = 0
	}
	if minDeg == 0 {
		return nil, fmt.Errorf("gen: ErdosRenyiImplicit produced an isolated client (p=%v, ensureClients=%v): %w",
			p, ensureClients, bipartite.ErrIsolatedClient)
	}
	return &Implicit{
		kind:       fmt.Sprintf("erdos-renyi p=%.3g", p),
		numClients: numClients,
		numServers: numServers,
		minDeg:     minDeg,
		maxDeg:     maxDeg,
		degree:     func(v int) int { return int(degrees[v]) },
		row:        row,
	}, nil
}

// ---------------------------------------------------------------------------
// Almost-regular: per-client pool sampling plus a light-server overlay.

// distinctRow appends k distinct values from [0, pool) to buf in draw
// order, by rejection against a linear scan of the values drawn so far.
// The scan costs O(k²) per row, which made implicit regeneration
// quadratic in the degree; the production samplers now use the O(k)
// Feistel partial shuffle in sample.go, and this function remains only
// as the straightforward reference that the sampler tests and benchmarks
// compare against.
func distinctRow(s *rng.Stream, pool, k int, buf []int32) []int32 {
	if k > pool {
		// Mirror rng.Source.Sample's contract: fewer than k distinct
		// values exist, so the rejection loop below could never finish.
		panic("gen: distinctRow called with k > pool")
	}
	start := len(buf)
	for len(buf)-start < k {
		x := int32(s.Intn(pool))
		dup := false
		for _, y := range buf[start:] {
			if y == x {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, x)
		}
	}
	return buf
}

// AlmostRegularImplicit returns the implicit counterpart of the paper's
// almost-regular example: every client samples its BaseDegree (heavy
// clients: HeavyDegree) servers without replacement from the ordinary
// pool via the O(k) Feistel partial shuffle (SampleRow), regenerated on
// demand from the client's O(1)-derivable stream — which keeps even the
// Θ(√n)-degree heavy clients' per-round regeneration linear in their
// degree; the cfg.LightServers low-degree servers attach to LightDegree
// random clients each, and those O(log n · LightDegree) overlay edges are
// the only ones stored explicitly (they are server-driven, so they cannot
// be regenerated from a client seed alone). Overlay edges are appended
// after the pool samples in each affected client's row.
func AlmostRegularImplicit(cfg AlmostRegularConfig, seed uint64) (*Implicit, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.N
	pool := n - cfg.LightServers
	baseDeg := func(v int) int {
		deg := cfg.BaseDegree
		if v < cfg.HeavyClients {
			deg = cfg.HeavyDegree
		}
		if deg > pool {
			deg = pool
		}
		return deg
	}
	// Build the light-server overlay: for each light server u, LightDegree
	// distinct clients drawn from a stream keyed by u (offset past the
	// client stream indices so the two families never collide). These
	// edges are server-driven, so they are stored explicitly — there are
	// only O(LightServers · LightDegree) of them. Iterating u in ascending
	// order keeps each client's overlay list deterministic.
	extraOf := make(map[int32][]int32, cfg.LightServers*cfg.LightDegree)
	var clients []int32
	for u := pool; u < n; u++ {
		s := rng.StreamAt(seed^0x94d049bb133111eb, n+u)
		clients = SampleRow(&s, n, cfg.LightDegree, clients[:0])
		for _, v := range clients {
			extraOf[v] = append(extraOf[v], int32(u))
		}
	}
	minDeg, maxDeg := n+1, 0
	for v := 0; v < n; v++ {
		d := baseDeg(v) + len(extraOf[int32(v)])
		if d < minDeg {
			minDeg = d
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	row := func(v int, buf []int32) []int32 {
		s := rng.StreamAt(seed, v)
		buf = SampleRow(&s, pool, baseDeg(v), buf)
		return append(buf, extraOf[int32(v)]...)
	}
	// The exact per-server degree table: one O(n·Δ) row pass, run lazily
	// on the first DegreeStats call. Lemma 19's prescribed c depends on
	// the *measured* ∆max(S) of the sampled graph, so carrying the table
	// is what lets E8 derive its threshold without materializing the
	// edges (memory stays O(n)); every other caller skips the pass.
	serverDegFn := func() []int32 {
		serverDeg := make([]int32, n)
		rowBuf := make([]int32, 0, maxDeg)
		for v := 0; v < n; v++ {
			rowBuf = row(v, rowBuf[:0])
			for _, u := range rowBuf {
				serverDeg[u]++
			}
		}
		return serverDeg
	}
	return &Implicit{
		kind:        fmt.Sprintf("almost-regular base=%d heavy=%dx%d light=%dx%d", cfg.BaseDegree, cfg.HeavyClients, cfg.HeavyDegree, cfg.LightServers, cfg.LightDegree),
		numClients:  n,
		numServers:  n,
		minDeg:      minDeg,
		maxDeg:      maxDeg,
		serverDegFn: serverDegFn,
		degree:      func(v int) int { return baseDeg(v) + len(extraOf[int32(v)]) },
		row:         row,
		// Entry i is either the i-th pool sample (one Feistel image) or,
		// past baseDeg(v), a stored overlay edge — O(1) either way.
		at: func(v, i int) int32 {
			if k := baseDeg(v); i >= k {
				return extraOf[int32(v)][i-k]
			}
			s := rng.StreamAt(seed, v)
			return SampleAt(&s, pool, i)
		},
	}, nil
}

// ErrNoImplicit is returned by implicit constructors dispatching on a
// family without a regenerative sampler.
var ErrNoImplicit = errors.New("gen: graph family has no implicit topology")
