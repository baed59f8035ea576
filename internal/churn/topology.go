package churn

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/cpufeat"
	"repro/internal/gen"
	"repro/internal/rng"
)

// Backend selects how a Topology stores its rewired rows. Both backends
// produce the identical edge multiset in the identical per-client order
// for the same mutation history, so protocol results are bit-for-bit
// independent of the choice (the equivalence tests sweep it).
type Backend int

const (
	// BackendImplicit stores only the per-client rewire epoch and
	// regenerates rewired rows on demand from their (epoch, client)
	// stream — O(1) state per churned client, the churn counterpart of
	// the implicit topologies in internal/gen.
	BackendImplicit Backend = iota
	// BackendCSRPatch materializes rewired rows into a compacting patch
	// arena (see rowPatch): updates cost O(row) words but reads are a
	// plain copy instead of a resample, the right trade when rows are
	// read many times per epoch (expensive samplers, many rounds).
	BackendCSRPatch
)

// String returns the backend's CLI spelling.
func (b Backend) String() string {
	switch b {
	case BackendImplicit:
		return "implicit"
	case BackendCSRPatch:
		return "csr-patch"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Sampler regenerates a client's admissible row for a rewire epoch. Row
// must be a pure function of (epochSeed, v): it must append to buf
// (never alias internal storage), always produce the same sequence for
// the same inputs, and never produce an empty row — the per-client
// stream is derived from epochSeed via rng.StreamAt, so regeneration is
// O(row) with no shared state. MaxDegree bounds the length of any row
// the sampler can produce (it sizes scratch buffers), and NumServers is
// the server count the rows draw from: New requires it to equal the
// base topology's and MaxDegree not to exceed it.
type Sampler struct {
	Row func(epochSeed uint64, v int, buf []int32) []int32
	// At returns Row(epochSeed, v, nil)[i] in O(1) without producing the
	// rest of the row, and Degree returns that row's length in O(1).
	// Both are optional: when either is nil, the implicit backend
	// reports CanPointQuery() == false and the engines fall back to
	// whole-row regeneration (the CSR-patch backend answers from its
	// arena and never needs them). When set, they must agree exactly
	// with Row — the equivalence suites sweep both access paths.
	At     func(epochSeed uint64, v, i int) int32
	Degree func(epochSeed uint64, v int) int

	MaxDegree  int
	NumServers int
}

// TrustSampler rewires a client to k servers drawn without replacement
// from [0, numServers) — the trust-subset family's row, regenerated
// through the O(k) Feistel partial shuffle in internal/gen.
func TrustSampler(numServers, k int) Sampler {
	return Sampler{
		Row: func(epochSeed uint64, v int, buf []int32) []int32 {
			s := rng.StreamAt(epochSeed, v)
			return gen.SampleRow(&s, numServers, k, buf)
		},
		// A rewired row is a k-prefix partial shuffle, so entry i is one
		// Feistel image and the degree is the constant k.
		At: func(epochSeed uint64, v, i int) int32 {
			s := rng.StreamAt(epochSeed, v)
			return gen.SampleAt(&s, numServers, i)
		},
		Degree:     func(uint64, int) int { return k },
		MaxDegree:  k,
		NumServers: numServers,
	}
}

// ErdosRenyiSampler rewires a client to each server independently with
// probability p (ascending order, with the ensure-clients fallback edge
// so rows are never empty), via the skip-sampling row shared with
// gen.ErdosRenyiImplicit.
func ErdosRenyiSampler(numServers int, p float64) Sampler {
	return Sampler{
		Row: func(epochSeed uint64, v int, buf []int32) []int32 {
			s := rng.StreamAt(epochSeed, v)
			return gen.ErdosRenyiRow(&s, numServers, p, true, buf)
		},
		MaxDegree:  numServers,
		NumServers: numServers,
	}
}

// Config declares a churn Topology.
type Config struct {
	// Base is the epoch-0 graph; clients that are never rewired keep
	// reading their base rows through it.
	Base bipartite.Topology
	// Sampler regenerates rewired rows.
	Sampler Sampler
	// Seed keys the per-(epoch, client) rewiring streams and the
	// failed-neighborhood fallback edges.
	Seed uint64
	// Backend selects the rewired-row storage.
	Backend Backend
}

// Topology is a mutable, versioned client–server adjacency: a base
// bipartite.Topology plus an O(changed)-cost mutation layer — per-client
// edge rewiring, client arrival/departure, server failure/recovery. It
// implements bipartite.Topology (and bipartite.Versioned), so the
// protocol engines run on it directly; every mutation bumps the version,
// which is what the Runner's version-keyed caches (frontier row cache,
// route lanes) invalidate against via Runner.PatchTopology.
//
// Concurrency: reads (the bipartite.Topology methods) are safe from
// multiple goroutines, as the engines require. Mutations are not — they
// must happen between protocol runs, on one goroutine (the Scheduler's
// epoch loop does exactly that), and they invalidate any row slice a
// previous read returned.
type Topology struct {
	base bipartite.Topology
	// baseCSR is non-nil when base is a materialized graph, whose
	// AppendClientNeighbors would alias internal storage on an empty
	// buffer — churn reads copy its rows instead (see the no-alias
	// guarantee on AppendClientNeighbors).
	baseCSR *bipartite.Graph
	// basePQ is base's point-query view when base implements
	// bipartite.PointQueryable (fixed at construction; its CanPointQuery
	// is re-checked per call since a versioned base may flip).
	basePQ  bipartite.PointQueryable
	sampler Sampler
	seed    uint64
	backend Backend
	n, m    int

	version uint64

	// rewired[v] is the epoch client v's row was last rewired at, or -1
	// when v still reads its base row.
	rewired []int32
	// patch stores the rewired rows for BackendCSRPatch (nil otherwise).
	patch *rowPatch

	present    []bool
	numPresent int

	// failedBits holds one bit per server, set while the server is
	// failed: ⌈m/64⌉ words that row filtering reads without branching.
	failedBits []uint64
	numFailed  int
	// live lists the non-failed servers ascending; it is rebuilt on
	// every failure/recovery batch (mutation time, never read time) and
	// backs the deterministic fallback edge of fully-failed rows.
	live []int32

	maxDeg int
}

var (
	_ bipartite.Topology  = (*Topology)(nil)
	_ bipartite.Versioned = (*Topology)(nil)
)

// Salts decorrelating the topology's derived stream families.
const (
	epochSeedSalt = 0x7c1592a6d3e48b19
	fallbackSalt  = 0x3b97f4a7c159e377
)

// New returns a churn Topology over cfg.Base with every client present,
// every server live, and no row rewired.
func New(cfg Config) (*Topology, error) {
	if cfg.Base == nil {
		return nil, fmt.Errorf("churn: Config.Base is nil")
	}
	if err := cfg.Base.Validate(); err != nil {
		return nil, fmt.Errorf("churn: invalid base topology: %w", err)
	}
	if cfg.Sampler.Row == nil || cfg.Sampler.MaxDegree < 1 {
		return nil, fmt.Errorf("churn: Config.Sampler needs a Row function and MaxDegree >= 1")
	}
	if cfg.Backend != BackendImplicit && cfg.Backend != BackendCSRPatch {
		return nil, fmt.Errorf("churn: unknown backend %d", int(cfg.Backend))
	}
	n := cfg.Base.NumClients()
	m := cfg.Base.NumServers()
	if cfg.Sampler.NumServers != m {
		return nil, fmt.Errorf("churn: Config.Sampler draws from %d servers, the base topology has %d",
			cfg.Sampler.NumServers, m)
	}
	if cfg.Sampler.MaxDegree > m {
		return nil, fmt.Errorf("churn: Config.Sampler.MaxDegree %d exceeds the %d servers", cfg.Sampler.MaxDegree, m)
	}
	baseCSR, _ := cfg.Base.(*bipartite.Graph)
	basePQ, _ := cfg.Base.(bipartite.PointQueryable)
	t := &Topology{
		base:       cfg.Base,
		baseCSR:    baseCSR,
		basePQ:     basePQ,
		sampler:    cfg.Sampler,
		seed:       cfg.Seed,
		backend:    cfg.Backend,
		n:          n,
		m:          m,
		rewired:    make([]int32, n),
		present:    make([]bool, n),
		numPresent: n,
		failedBits: make([]uint64, (m+63)/64),
		live:       make([]int32, m),
		maxDeg:     max(cfg.Base.MaxClientDegree(), cfg.Sampler.MaxDegree),
	}
	for v := range t.rewired {
		t.rewired[v] = -1
		t.present[v] = true
	}
	for u := range t.live {
		t.live[u] = int32(u)
	}
	if cfg.Backend == BackendCSRPatch {
		t.patch = newRowPatch(n)
	}
	return t, nil
}

// NumClients returns the number of client slots (present or not).
func (t *Topology) NumClients() int { return t.n }

// NumServers returns the number of servers (live or failed).
func (t *Topology) NumServers() int { return t.m }

// TopologyVersion returns the mutation counter (bipartite.Versioned).
func (t *Topology) TopologyVersion() uint64 { return t.version }

// EpochSeed derives the seed of epoch's rewiring stream family: rewired
// client v's row is Sampler.Row(EpochSeed(epoch), v, …), a pure function
// of (Seed, epoch, v) — which is what makes a mutation history
// replayable and the two backends bit-for-bit interchangeable.
func (t *Topology) EpochSeed(epoch int) uint64 {
	sm := (t.seed ^ epochSeedSalt) + uint64(epoch)*0x9e3779b97f4a7c15
	return rng.SplitMix64(&sm)
}

// MaxClientDegree returns an upper bound on the client degrees: the
// maximum of the base bound and the sampler bound (failure filtering
// only shrinks rows). The protocol engines use it to size scratch
// buffers, for which a bound is exactly as good as the maximum.
func (t *Topology) MaxClientDegree() int { return t.maxDeg }

// ClientDegree returns |N(v)|. With no failures active every branch is
// O(1) modulo the base topology's own degree cost (the patch arena and
// the samplers both know their row lengths); under failures the row is
// regenerated and filtered, costing O(Δ).
func (t *Topology) ClientDegree(v int) int {
	if t.numFailed == 0 {
		e := t.rewired[v]
		if e < 0 {
			return t.base.ClientDegree(v)
		}
		if t.patch != nil {
			row, _ := t.patch.row(v)
			return len(row)
		}
		if t.sampler.Degree != nil {
			return t.sampler.Degree(t.EpochSeed(int(e)), v)
		}
	}
	return len(t.AppendClientNeighbors(v, make([]int32, 0, t.maxDeg)))
}

// CanPointQuery reports whether NeighborAt currently honors the
// bipartite.PointQueryable contract: no failures may be active (failure
// filtering makes entry i a function of the whole row), the base must
// answer point queries for never-rewired clients, and rewired rows must
// be answerable either from the patch arena (CSR-patch backend) or
// through the sampler's At/Degree (implicit backend). Failures and
// recoveries bump the version, so engines that cached a point-query
// view re-derive it exactly when queryability can have flipped.
func (t *Topology) CanPointQuery() bool {
	if t.numFailed > 0 {
		return false
	}
	if t.basePQ == nil || !t.basePQ.CanPointQuery() {
		return false
	}
	if t.patch == nil && (t.sampler.At == nil || t.sampler.Degree == nil) {
		return false
	}
	return true
}

// NeighborAt returns the i-th entry of client v's current row in O(1):
// the patch arena row in place (no copy, no resample — the CSR-patch
// backend's dense rounds read each patched row `rounds·d` times through
// here), one sampler Feistel image (implicit backend), or the base
// topology's own point query. It must only be called while
// CanPointQuery reports true.
func (t *Topology) NeighborAt(v, i int) int32 {
	if e := t.rewired[v]; e >= 0 {
		if t.patch != nil {
			row, _ := t.patch.row(v)
			return row[i]
		}
		return t.sampler.At(t.EpochSeed(int(e)), v, i)
	}
	return t.basePQ.NeighborAt(v, i)
}

// NeighborsAt sets out[j] = NeighborAt(vs[j], idx[j]) for every j. It
// must only be called while CanPointQuery reports true.
func (t *Topology) NeighborsAt(vs, idx, out []int32) {
	vs, idx = vs[:len(out)], idx[:len(out)]
	for j := range out {
		out[j] = t.NeighborAt(int(vs[j]), int(idx[j]))
	}
}

var _ bipartite.PointQueryable = (*Topology)(nil)

// Validate answers from construction-time and mutation-time guarantees
// in O(1): the base graph was validated at construction, samplers never
// produce empty rows, failure filtering falls back to a live server when
// it would empty a row, and FailServers refuses to fail the last server.
func (t *Topology) Validate() error {
	if t.n <= 0 || t.m <= 0 {
		return bipartite.ErrEmptyGraph
	}
	if t.numFailed >= t.m {
		return fmt.Errorf("churn: all %d servers failed", t.m)
	}
	return nil
}

// AppendClientNeighbors appends client v's current row to buf: the base
// or rewired row with failed servers filtered out, falling back to one
// deterministic live server when the whole neighborhood is failed.
//
// Unlike materialized graphs, a churn Topology never returns an
// aliasing view of its storage, even for an empty buf: the protocol
// engines feed a returned row back as the next call's scratch buffer,
// and an aliased view would let that append write straight through into
// the patch arena or the base CSR arrays. Rows stored explicitly are
// therefore copied into buf (the copy is the CSR-patch read cost; the
// implicit backend resamples into buf anyway).
func (t *Topology) AppendClientNeighbors(v int, buf []int32) []int32 {
	start := len(buf)
	switch e := t.rewired[v]; {
	case e >= 0 && t.patch != nil:
		prow, _ := t.patch.row(v)
		buf = append(buf, prow...)
	case e >= 0:
		buf = t.sampler.Row(t.EpochSeed(int(e)), v, buf)
	case t.baseCSR != nil:
		buf = append(buf, t.baseCSR.ClientNeighbors(v)...)
	default:
		// Non-CSR bases (gen.Implicit, another churn Topology) append
		// into buf by construction, so the no-alias guarantee holds.
		buf = t.base.AppendClientNeighbors(v, buf)
	}
	if t.numFailed == 0 {
		return buf
	}
	return t.withFallback(v, t.dropFailed(buf, start), start)
}

// dropFailed filters buf[start:] in place against the failed-server
// bitset, keeping the live entries in order. Where the CPU has AVX-512
// (cpufeat), whole blocks of 16 go through the filter kernel; the last
// (len(buf)−start) mod 16 entries, and every entry elsewhere, go through
// keepLive.
func (t *Topology) dropFailed(buf []int32, start int) []int32 {
	out, from := start, start
	if cpufeat.AVX512() {
		from += (len(buf) - start) &^ 15
		if from > start {
			n := dropFailedAVX512(buf[start:from], t.failedBits)
			if n < 0 {
				panic("churn: row lists a server outside the topology")
			}
			out += n
		}
	}
	return keepLive(buf, out, from, t.failedBits)
}

// keepLive is the portable filter: it moves the entries of buf[from:]
// whose bit in failed is clear to the write cursor out ≤ from, in order,
// and returns buf[:cursor]. It has no data-dependent branch: every entry
// is written at the cursor, which then advances by the entry's live bit.
// The cursor never passes the read position because entries are only
// dropped.
func keepLive(buf []int32, out, from int, failed []uint64) []int32 {
	for _, u := range buf[from:] {
		buf[out] = u
		out += int(^failed[u>>6]>>(uint32(u)&63)) & 1
	}
	return buf[:out]
}

// withFallback guarantees a non-empty row: when failure filtering left
// buf[start:] empty, a fallback edge to a deterministic live server is
// appended — the client keeps exactly one admissible (if likely
// overloaded) server, mirroring the ensure-clients rule of the
// Erdős–Rényi generators.
func (t *Topology) withFallback(v int, buf []int32, start int) []int32 {
	if len(buf) > start {
		return buf
	}
	s := rng.StreamAt(t.seed^fallbackSalt, v)
	return append(buf, t.live[s.Intn(len(t.live))])
}

// ---------------------------------------------------------------------------
// Mutations. All of them are O(changed) (plus an O(m) live-list rebuild
// on failure/recovery batches), bump the version once per call, and must
// not run concurrently with reads.

// Rewire replaces each listed client's row with a fresh sample from the
// epoch's stream family. Implicit backend: O(1) per client (the epoch
// mark); CSR-patch backend: O(row) per client (the arena write).
func (t *Topology) Rewire(epoch int, clients []int32) {
	if len(clients) == 0 {
		return
	}
	t.version++
	if t.patch == nil {
		for _, v := range clients {
			t.rewired[v] = int32(epoch)
		}
		return
	}
	epochSeed := t.EpochSeed(epoch)
	buf := make([]int32, 0, t.sampler.MaxDegree)
	for _, v := range clients {
		t.rewired[v] = int32(epoch)
		buf = t.sampler.Row(epochSeed, int(v), buf[:0])
		t.patch.set(v, buf)
	}
}

// RewireAll rewires every client slot: after it, the graph is exactly
// the from-scratch graph of the epoch's sampler family (the
// ChurnFraction = 1 cross-check pins this).
func (t *Topology) RewireAll(epoch int) {
	all := make([]int32, t.n)
	for v := range all {
		all[v] = int32(v)
	}
	t.Rewire(epoch, all)
}

// Arrive marks the listed clients present and rewires them: a new
// session starts with a fresh admissible neighborhood. Arriving an
// already-present client restarts its session.
func (t *Topology) Arrive(epoch int, clients []int32) {
	for _, v := range clients {
		if !t.present[v] {
			t.present[v] = true
			t.numPresent++
		}
	}
	t.Rewire(epoch, clients)
}

// Depart marks the listed clients absent. Their rows stay readable (the
// engines skip them through zero request counts), so departure costs
// O(clients) regardless of degree.
func (t *Topology) Depart(clients []int32) {
	if len(clients) == 0 {
		return
	}
	t.version++
	for _, v := range clients {
		if t.present[v] {
			t.present[v] = false
			t.numPresent--
		}
	}
}

// FailServers marks the listed servers failed: their edges are filtered
// out of every row at read time, so the mutation itself is O(servers)
// plus the O(m) live-list rebuild. A server listed twice counts once.
// Failing every server is refused, and a refused call changes nothing.
func (t *Topology) FailServers(servers []int32) error {
	if len(servers) == 0 {
		return nil
	}
	for _, u := range servers {
		if u < 0 || int(u) >= t.m {
			return fmt.Errorf("churn: server %d out of range [0, %d)", u, t.m)
		}
	}
	// Marking while counting makes a repeated id count once.
	newly := 0
	for _, u := range servers {
		if !t.FailedServer(int(u)) {
			t.failedBits[u>>6] |= 1 << (uint32(u) & 63)
			newly++
		}
	}
	if t.numFailed+newly >= t.m {
		// The marks above only set bits, and live still lists every
		// server that was live before the call: clearing those bits
		// restores the bitset.
		for _, u := range t.live {
			t.failedBits[u>>6] &^= 1 << (uint32(u) & 63)
		}
		return fmt.Errorf("churn: failing %d servers would fail all %d", newly, t.m)
	}
	t.version++
	t.numFailed += newly
	t.rebuildLive()
	return nil
}

// RecoverServers clears the failed mark of the listed servers; their
// edges reappear in every row that lists them.
func (t *Topology) RecoverServers(servers []int32) {
	if len(servers) == 0 {
		return
	}
	t.version++
	for _, u := range servers {
		if t.FailedServer(int(u)) {
			t.failedBits[u>>6] &^= 1 << (uint32(u) & 63)
			t.numFailed--
		}
	}
	t.rebuildLive()
}

func (t *Topology) rebuildLive() {
	t.live = t.live[:0]
	for u := 0; u < t.m; u++ {
		if !t.FailedServer(u) {
			t.live = append(t.live, int32(u))
		}
	}
}

// ---------------------------------------------------------------------------
// Queries.

// Present reports whether client v currently has a session.
func (t *Topology) Present(v int) bool { return t.present[v] }

// NumPresent returns the number of present clients.
func (t *Topology) NumPresent() int { return t.numPresent }

// AppendPresentClients appends the present clients to buf, ascending.
func (t *Topology) AppendPresentClients(buf []int32) []int32 {
	for v := 0; v < t.n; v++ {
		if t.present[v] {
			buf = append(buf, int32(v))
		}
	}
	return buf
}

// FailedServer reports whether server u is currently failed.
func (t *Topology) FailedServer(u int) bool { return t.failedBits[u>>6]>>(uint(u)&63)&1 != 0 }

// NumFailed returns the number of failed servers.
func (t *Topology) NumFailed() int { return t.numFailed }

// LiveServers returns the live servers ascending. The slice aliases the
// topology's state: read-only, valid until the next failure/recovery.
func (t *Topology) LiveServers() []int32 { return t.live }

// RewireEpoch returns the epoch client v was last rewired at, or -1.
func (t *Topology) RewireEpoch(v int) int { return int(t.rewired[v]) }

// String returns a short human-readable summary.
func (t *Topology) String() string {
	return fmt.Sprintf("churn{%s clients=%d(present %d) servers=%d(failed %d) version=%d}",
		t.backend, t.n, t.numPresent, t.m, t.numFailed, t.version)
}
