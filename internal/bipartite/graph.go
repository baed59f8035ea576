// Package bipartite defines the client–server bipartite graph model used
// throughout the reproduction.
//
// A Graph has n clients and m servers (the paper takes n = m, but the
// representation does not require it). The edge set encodes the admissible
// assignments: client v may send a request only to the servers in its
// neighborhood N(v). The package stores the adjacency in CSR (compressed
// sparse row) form for both sides so that the protocol simulation can walk
// a client's neighborhood and the analysis can walk a server's
// neighborhood without any allocation.
package bipartite

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Graph is an immutable bipartite client–server graph.
//
// Clients are identified by integers in [0, NumClients()); servers by
// integers in [0, NumServers()). The adjacency is stored twice (by client
// and by server) so that both directions can be traversed in O(degree).
type Graph struct {
	numClients int
	numServers int

	// CSR by client: servers adjacent to client v are
	// clientNbr[clientOff[v]:clientOff[v+1]].
	clientOff []int32
	clientNbr []int32

	// CSR by server: clients adjacent to server u are
	// serverNbr[serverOff[u]:serverOff[u+1]].
	serverOff []int32
	serverNbr []int32
}

// Errors returned by the validation helpers.
var (
	ErrEmptyGraph      = errors.New("bipartite: graph has no clients or no servers")
	ErrIsolatedClient  = errors.New("bipartite: a client has no admissible server")
	ErrVertexOutOfSide = errors.New("bipartite: edge endpoint out of range")
)

// Edge is a single client–server admissibility edge.
type Edge struct {
	Client int
	Server int
}

// Builder accumulates edges and produces an immutable Graph.
// It is not safe for concurrent use.
type Builder struct {
	numClients int
	numServers int
	edges      []Edge
}

// NewBuilder returns a Builder for a graph with the given number of
// clients and servers. Both counts must be positive.
func NewBuilder(numClients, numServers int) *Builder {
	return &Builder{numClients: numClients, numServers: numServers}
}

// AddEdge records the admissibility edge (client, server). Duplicate edges
// are allowed at this stage; Build collapses or keeps them according to
// the chosen option.
func (b *Builder) AddEdge(client, server int) *Builder {
	b.edges = append(b.edges, Edge{Client: client, Server: server})
	return b
}

// NumEdgesStaged reports how many edges have been added so far
// (before any deduplication performed by Build).
func (b *Builder) NumEdgesStaged() int { return len(b.edges) }

// BuildOption tunes Builder.Build.
type BuildOption int

const (
	// KeepParallelEdges leaves duplicate (client, server) pairs in place.
	// The protocol treats a duplicated edge as a higher selection weight,
	// which some generators (configuration model) rely on.
	KeepParallelEdges BuildOption = iota
	// DedupEdges collapses duplicate (client, server) pairs to one edge.
	DedupEdges
)

// Build validates endpoints and produces the immutable Graph.
func (b *Builder) Build(opt BuildOption) (*Graph, error) {
	if b.numClients <= 0 || b.numServers <= 0 {
		return nil, ErrEmptyGraph
	}
	for _, e := range b.edges {
		if e.Client < 0 || e.Client >= b.numClients || e.Server < 0 || e.Server >= b.numServers {
			return nil, fmt.Errorf("%w: edge (%d,%d) with %d clients and %d servers",
				ErrVertexOutOfSide, e.Client, e.Server, b.numClients, b.numServers)
		}
	}
	edges := b.edges
	if opt == DedupEdges {
		edges = dedupEdges(edges)
	}
	return fromEdges(b.numClients, b.numServers, edges), nil
}

func dedupEdges(edges []Edge) []Edge {
	sorted := make([]Edge, len(edges))
	copy(sorted, edges)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Client != sorted[j].Client {
			return sorted[i].Client < sorted[j].Client
		}
		return sorted[i].Server < sorted[j].Server
	})
	out := sorted[:0]
	for i, e := range sorted {
		if i == 0 || e != sorted[i-1] {
			out = append(out, e)
		}
	}
	return out
}

// fromEdges builds both CSR directions from a validated edge list.
func fromEdges(numClients, numServers int, edges []Edge) *Graph {
	g := &Graph{
		numClients: numClients,
		numServers: numServers,
		clientOff:  make([]int32, numClients+1),
		serverOff:  make([]int32, numServers+1),
		clientNbr:  make([]int32, len(edges)),
		serverNbr:  make([]int32, len(edges)),
	}
	for _, e := range edges {
		g.clientOff[e.Client+1]++
		g.serverOff[e.Server+1]++
	}
	for i := 0; i < numClients; i++ {
		g.clientOff[i+1] += g.clientOff[i]
	}
	for i := 0; i < numServers; i++ {
		g.serverOff[i+1] += g.serverOff[i]
	}
	cPos := make([]int32, numClients)
	sPos := make([]int32, numServers)
	for _, e := range edges {
		g.clientNbr[g.clientOff[e.Client]+cPos[e.Client]] = int32(e.Server)
		cPos[e.Client]++
		g.serverNbr[g.serverOff[e.Server]+sPos[e.Server]] = int32(e.Client)
		sPos[e.Server]++
	}
	return g
}

// NumClients returns the number of clients (|C|).
func (g *Graph) NumClients() int { return g.numClients }

// NumServers returns the number of servers (|S|).
func (g *Graph) NumServers() int { return g.numServers }

// NumEdges returns the number of admissibility edges (parallel edges
// counted with multiplicity).
func (g *Graph) NumEdges() int { return len(g.clientNbr) }

// ClientDegree returns |N(v)| for client v.
func (g *Graph) ClientDegree(v int) int {
	return int(g.clientOff[v+1] - g.clientOff[v])
}

// ServerDegree returns |N(u)| for server u.
func (g *Graph) ServerDegree(u int) int {
	return int(g.serverOff[u+1] - g.serverOff[u])
}

// ClientNeighbors returns the servers adjacent to client v. The returned
// slice aliases the graph's internal storage and must not be modified.
func (g *Graph) ClientNeighbors(v int) []int32 {
	return g.clientNbr[g.clientOff[v]:g.clientOff[v+1]]
}

// ServerNeighbors returns the clients adjacent to server u. The returned
// slice aliases the graph's internal storage and must not be modified.
func (g *Graph) ServerNeighbors(u int) []int32 {
	return g.serverNbr[g.serverOff[u]:g.serverOff[u+1]]
}

// Edges returns a copy of the edge list in client-major order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := 0; v < g.numClients; v++ {
		for _, u := range g.ClientNeighbors(v) {
			out = append(out, Edge{Client: v, Server: int(u)})
		}
	}
	return out
}

// Validate checks the structural requirements the protocols rely on:
// non-empty sides and no isolated clients (a client with an empty
// neighborhood could never place its balls).
func (g *Graph) Validate() error {
	if g.numClients == 0 || g.numServers == 0 {
		return ErrEmptyGraph
	}
	for v := 0; v < g.numClients; v++ {
		if g.ClientDegree(v) == 0 {
			return fmt.Errorf("%w: client %d", ErrIsolatedClient, v)
		}
	}
	return nil
}

// DegreeStats summarizes the degree sequences of both sides together with
// the quantities Theorem 1 is stated in terms of.
type DegreeStats struct {
	MinClientDegree int     // ∆min(C)
	MaxClientDegree int     // ∆max(C)
	MinServerDegree int     // ∆min(S)
	MaxServerDegree int     // ∆max(S)
	MeanClientDeg   float64 // average |N(v)| over clients
	MeanServerDeg   float64 // average |N(u)| over servers
	// RegularityRatio is ρ = ∆max(S)/∆min(C); Theorem 1 requires it to be
	// bounded by a constant. It is +Inf when some client is isolated.
	RegularityRatio float64
	// Eta is the η for which ∆min(C) = η·log₂²(n) with n = |C|; this is the
	// constant that lower-bounds the admissible threshold c through
	// 288/(η·d). Base-2 logarithms are used for all paper quantities in
	// this codebase. It is +Inf for n ≤ 1.
	Eta float64
}

// Stats computes DegreeStats in a single pass.
func (g *Graph) Stats() DegreeStats {
	return DegreeStatsOf(g.numClients, g.numServers, g.ClientDegree, g.ServerDegree)
}

// DegreeStatsOf computes DegreeStats from degree accessors. It is the
// shared implementation behind Graph.Stats and the implicit topologies
// that carry exact degree tables (gen.Implicit.DegreeStats).
func DegreeStatsOf(numClients, numServers int, clientDeg, serverDeg func(int) int) DegreeStats {
	st := DegreeStats{
		MinClientDegree: math.MaxInt,
		MinServerDegree: math.MaxInt,
	}
	totalC := 0
	for v := 0; v < numClients; v++ {
		d := clientDeg(v)
		totalC += d
		if d < st.MinClientDegree {
			st.MinClientDegree = d
		}
		if d > st.MaxClientDegree {
			st.MaxClientDegree = d
		}
	}
	totalS := 0
	for u := 0; u < numServers; u++ {
		d := serverDeg(u)
		totalS += d
		if d < st.MinServerDegree {
			st.MinServerDegree = d
		}
		if d > st.MaxServerDegree {
			st.MaxServerDegree = d
		}
	}
	if numClients > 0 {
		st.MeanClientDeg = float64(totalC) / float64(numClients)
	}
	if numServers > 0 {
		st.MeanServerDeg = float64(totalS) / float64(numServers)
	}
	if st.MinClientDegree == math.MaxInt {
		st.MinClientDegree = 0
	}
	if st.MinServerDegree == math.MaxInt {
		st.MinServerDegree = 0
	}
	if st.MinClientDegree > 0 {
		st.RegularityRatio = float64(st.MaxServerDegree) / float64(st.MinClientDegree)
	} else {
		st.RegularityRatio = math.Inf(1)
	}
	if numClients > 1 {
		logn := math.Log2(float64(numClients))
		st.Eta = float64(st.MinClientDegree) / (logn * logn)
	} else {
		st.Eta = math.Inf(1)
	}
	return st
}

// IsRegular reports whether every client and every server has exactly
// degree delta.
func (g *Graph) IsRegular(delta int) bool {
	for v := 0; v < g.numClients; v++ {
		if g.ClientDegree(v) != delta {
			return false
		}
	}
	for u := 0; u < g.numServers; u++ {
		if g.ServerDegree(u) != delta {
			return false
		}
	}
	return true
}

// HasEdge reports whether (client, server) is an admissibility edge. It is
// O(degree) and intended for tests and validation, not hot paths.
func (g *Graph) HasEdge(client, server int) bool {
	if client < 0 || client >= g.numClients || server < 0 || server >= g.numServers {
		return false
	}
	for _, u := range g.ClientNeighbors(client) {
		if int(u) == server {
			return true
		}
	}
	return false
}

// CheckConsistency verifies that the two CSR directions describe the same
// edge multiset. It is used by tests and by deserialization.
func (g *Graph) CheckConsistency() error {
	if len(g.clientNbr) != len(g.serverNbr) {
		return fmt.Errorf("bipartite: inconsistent edge counts %d vs %d", len(g.clientNbr), len(g.serverNbr))
	}
	counts := make(map[Edge]int, len(g.clientNbr))
	for v := 0; v < g.numClients; v++ {
		for _, u := range g.ClientNeighbors(v) {
			counts[Edge{Client: v, Server: int(u)}]++
		}
	}
	for u := 0; u < g.numServers; u++ {
		for _, v := range g.ServerNeighbors(u) {
			e := Edge{Client: int(v), Server: u}
			counts[e]--
			if counts[e] == 0 {
				delete(counts, e)
			}
		}
	}
	if len(counts) != 0 {
		return fmt.Errorf("bipartite: CSR directions disagree on %d edges", len(counts))
	}
	return nil
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	st := g.Stats()
	return fmt.Sprintf("bipartite{clients=%d servers=%d edges=%d degC=[%d,%d] degS=[%d,%d] rho=%.2f}",
		g.numClients, g.numServers, g.NumEdges(),
		st.MinClientDegree, st.MaxClientDegree, st.MinServerDegree, st.MaxServerDegree, st.RegularityRatio)
}
