package bipartite

import "fmt"

// Topology is the read-only client-side view of a bipartite client–server
// graph that the protocol engines require. It abstracts over *how* the
// adjacency is stored: the materialized CSR Graph implements it by
// returning slices of its edge arrays, while implicit topologies (see
// internal/gen: regular, Erdős–Rényi, trust-subset and almost-regular
// all have regenerative samplers) recompute a client's neighborhood on
// demand from a per-client random seed, storing O(n) state instead of
// O(n·Δ) edges — the representation that makes million-client
// simulations fit in memory. The sweep engine (internal/sweep) selects
// between the representations per experiment point; a run's Result is
// bit-for-bit independent of the choice.
//
// Implementations must be safe for concurrent use by multiple readers:
// the simulation engines call AppendClientNeighbors from several worker
// goroutines at once (with distinct buffers).
type Topology interface {
	// NumClients returns the number of clients (|C|).
	NumClients() int
	// NumServers returns the number of servers (|S|).
	NumServers() int
	// ClientDegree returns |N(v)| for client v (parallel edges counted
	// with multiplicity). Implicit implementations may take O(Δ) to
	// answer; hot paths should use AppendClientNeighbors and len().
	ClientDegree(v int) int
	// MaxClientDegree returns max_v |N(v)|. It is used to size
	// neighborhood scratch buffers once per run, so an O(n) computation
	// is acceptable.
	MaxClientDegree() int
	// AppendClientNeighbors appends the servers adjacent to client v to
	// buf and returns the extended slice. Implementations backed by
	// materialized storage may instead return an internal aliasing slice
	// when buf is empty; in every case the caller must treat the result
	// as read-only and valid only until the next call that reuses buf.
	// Callers that feed a returned slice back as a later call's scratch
	// buffer (the engines' per-worker row buffers do) must only do so
	// against implementations that append — an aliasing return would let
	// that later append write through into the topology's own storage.
	// The engines special-case *Graph (the one aliasing implementation)
	// onto a separate zero-copy path for exactly this reason.
	// The neighbor order is a fixed property of the topology: repeated
	// calls for the same v yield the same sequence.
	AppendClientNeighbors(v int, buf []int32) []int32
	// Validate checks the structural requirements the protocols rely on
	// (non-empty sides, no isolated clients). Implicit implementations
	// may answer from construction-time guarantees in O(1).
	Validate() error
}

// PointQueryable is implemented by topologies that can answer single
// neighbor lookups without materializing the whole row. The contract:
// whenever CanPointQuery reports true, NeighborAt(v, i) equals
// AppendClientNeighbors(v, nil)[i] for every client v and every
// 0 <= i < ClientDegree(v), and ClientDegree answers in O(1). The
// protocol engines use this to draw a client's d = O(1) ball
// destinations in O(d) point lookups instead of regenerating the full
// Θ(Δ) row — in the paper's Δ = log²n regime that removes ~99% of the
// dense client phase's per-visit work (see internal/core). The draw
// collects the lookups of many balls and resolves them with one
// NeighborsAt call, which an implementation may answer with a vector
// kernel (internal/gen's regular family does, where the CPU has
// AVX-512) or by looping over NeighborAt.
//
// CanPointQuery may change over the lifetime of a mutable topology:
// internal/churn's Topology answers point queries through its rewire
// marks but reports false while server failures are active (a failure
// filters rows at read time, so entry i is no longer a single
// regenerable image). Engines therefore re-derive queryability whenever
// the TopologyVersion moves (see Versioned).
//
// Implementations must be safe for concurrent readers, like the rest of
// Topology.
type PointQueryable interface {
	Topology
	// CanPointQuery reports whether NeighborAt currently honors the
	// contract above. Implementations whose queryability never changes
	// return a constant.
	CanPointQuery() bool
	// NeighborAt returns the i-th entry of client v's neighbor row,
	// equal to AppendClientNeighbors(v, nil)[i]. Behavior is undefined
	// when CanPointQuery is false or i is out of range.
	NeighborAt(v, i int) int32
	// NeighborsAt is the batched NeighborAt: it sets
	// out[j] = NeighborAt(vs[j], idx[j]) for every j, bit for bit. vs
	// and idx must be at least as long as out; the same preconditions
	// hold per lane.
	NeighborsAt(vs, idx, out []int32)
	// UniformDegree returns d > 0 when every client has degree d, and 0
	// when degrees differ or the topology does not keep track of them.
	// The draw reads it once per topology version, so a 0 costs one
	// ClientDegree call per drawing client and a d none. It may take
	// O(n).
	UniformDegree() int
}

// PointQuerier returns t as a PointQueryable when t implements the
// interface and currently answers point queries, and nil otherwise. It
// is the single entry point the engines use, so the "implements but
// temporarily non-queryable" state (churn under failures) and the
// "never implements" state (Erdős–Rényi skip-sampling) collapse into
// the same row-regeneration fallback.
func PointQuerier(t Topology) PointQueryable {
	pq, ok := t.(PointQueryable)
	if !ok || !pq.CanPointQuery() {
		return nil
	}
	return pq
}

// Versioned is implemented by mutable topologies whose adjacency can be
// patched in place between protocol runs (see internal/churn). The
// version is a monotone counter bumped on every mutation batch. The
// protocol engines key their point-query view (PointQuerier) on it:
// each round that sees a new version re-derives the view, so a mutation
// never reads through a stale one, even when the caller skipped
// core.Runner.PatchTopology (which re-binds unconditionally).
type Versioned interface {
	Topology
	// TopologyVersion returns the current mutation counter. Two calls
	// return the same value iff no mutation happened in between.
	TopologyVersion() uint64
}

// DegreeStatser is implemented by topologies that can report exact
// degree statistics without materializing their edges — either because
// the family's degrees are fixed by construction (implicit regular) or
// because the constructor recorded a per-server degree table (implicit
// almost-regular). It is what lets experiments whose threshold constant
// depends on measured server degrees (E8's Lemma-19 c) run on implicit
// topologies.
type DegreeStatser interface {
	// DegreeStats returns the exact statistics and true, or ok=false when
	// the implementation cannot answer without materialization.
	DegreeStats() (DegreeStats, bool)
}

// TopologyStats returns exact degree statistics for t when available:
// materialized graphs measure them directly, implicit topologies answer
// through DegreeStatser.
func TopologyStats(t Topology) (DegreeStats, bool) {
	switch g := t.(type) {
	case *Graph:
		return g.Stats(), true
	case DegreeStatser:
		return g.DegreeStats()
	}
	return DegreeStats{}, false
}

// Graph implements Topology.
var _ Topology = (*Graph)(nil)

// MaxClientDegree returns the largest client degree; it scans the offset
// array once.
func (g *Graph) MaxClientDegree() int {
	maxDeg := 0
	for v := 0; v < g.numClients; v++ {
		if d := g.ClientDegree(v); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// AppendClientNeighbors appends client v's neighbors to buf. When buf is
// empty the internal CSR slice is returned directly (zero copy), matching
// the aliasing contract of ClientNeighbors.
func (g *Graph) AppendClientNeighbors(v int, buf []int32) []int32 {
	nbrs := g.ClientNeighbors(v)
	if len(buf) == 0 {
		return nbrs
	}
	return append(buf, nbrs...)
}

// CanPointQuery reports true: a CSR row answers point queries by array
// read.
func (g *Graph) CanPointQuery() bool { return true }

// NeighborAt returns the i-th neighbor of client v in O(1).
func (g *Graph) NeighborAt(v, i int) int32 {
	return g.clientNbr[int(g.clientOff[v])+i]
}

// NeighborsAt sets out[j] = NeighborAt(vs[j], idx[j]) for every j.
func (g *Graph) NeighborsAt(vs, idx, out []int32) {
	vs, idx = vs[:len(out)], idx[:len(out)]
	for j := range out {
		out[j] = g.NeighborAt(int(vs[j]), int(idx[j]))
	}
}

// UniformDegree returns the client degree when every client has the
// same one, and 0 otherwise; it scans the offset array once.
func (g *Graph) UniformDegree() int {
	if g.numClients == 0 {
		return 0
	}
	d := g.ClientDegree(0)
	for v := 1; v < g.numClients; v++ {
		if g.ClientDegree(v) != d {
			return 0
		}
	}
	return d
}

var _ PointQueryable = (*Graph)(nil)

// Materialize builds the CSR Graph holding exactly the edges t describes,
// with every client row in t's neighbor order. If t already is a *Graph it
// is returned unchanged. The construction allocates the final CSR arrays
// directly (two passes over the rows) rather than staging an edge list, so
// peak memory is the graph's own 8 bytes/edge.
func Materialize(t Topology) (*Graph, error) {
	if g, ok := t.(*Graph); ok {
		return g, nil
	}
	n := t.NumClients()
	m := t.NumServers()
	if n <= 0 || m <= 0 {
		return nil, ErrEmptyGraph
	}
	g := &Graph{
		numClients: n,
		numServers: m,
		clientOff:  make([]int32, n+1),
		serverOff:  make([]int32, m+1),
	}
	scratch := make([]int32, 0, t.MaxClientDegree())
	for v := 0; v < n; v++ {
		scratch = t.AppendClientNeighbors(v, scratch[:0])
		g.clientOff[v+1] = g.clientOff[v] + int32(len(scratch))
	}
	edges := int(g.clientOff[n])
	g.clientNbr = make([]int32, edges)
	g.serverNbr = make([]int32, edges)
	for v := 0; v < n; v++ {
		scratch = t.AppendClientNeighbors(v, scratch[:0])
		row := g.clientNbr[g.clientOff[v]:g.clientOff[v+1]]
		if len(scratch) != len(row) {
			return nil, fmt.Errorf("bipartite: topology row %d changed length between passes (%d vs %d)",
				v, len(row), len(scratch))
		}
		copy(row, scratch)
		for _, u := range scratch {
			if u < 0 || int(u) >= m {
				return nil, fmt.Errorf("%w: client %d lists server %d of %d", ErrVertexOutOfSide, v, u, m)
			}
			g.serverOff[u+1]++
		}
	}
	for u := 0; u < m; u++ {
		g.serverOff[u+1] += g.serverOff[u]
	}
	pos := make([]int32, m)
	for v := 0; v < n; v++ {
		for _, u := range g.clientNbr[g.clientOff[v]:g.clientOff[v+1]] {
			g.serverNbr[g.serverOff[u]+pos[u]] = int32(v)
			pos[u]++
		}
	}
	return g, nil
}
