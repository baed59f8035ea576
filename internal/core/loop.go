package core

import (
	"fmt"
	"math"

	"repro/internal/bipartite"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// rowCacheEdgeBudget bounds the late-round frontier row cache for
// implicit topologies: caching activates once the frontier's worst-case
// row footprint (|frontier| × max degree) fits the budget, which keeps
// cached bytes at ≤ 4·max(n, 2¹⁶) — a few percent of what the
// materialized CSR twin would hold, preserving the implicit layer's
// memory guarantee (TestShardedRowCacheMemoryGuard pins it).
func rowCacheEdgeBudget(n int) int {
	const floor = 1 << 16
	if n < floor {
		return floor
	}
	return n
}

// pqBlockBalls is the number of balls a point-query block holds: enough
// to amortize one NeighborsAt call over whole kernel blocks, few enough
// that a worker's three arrays stay in L1.
const pqBlockBalls = 128

// pqBlock is one worker's point-query scratch: ball j of the block was
// drawn by client vs[j] at row index idx[j]. NeighborsAt writes the
// block's destinations straight into the chunk's stretch of choices.
type pqBlock struct{ vs, idx []int32 }

// padWords is the number of int32s in the 128-byte padding granule: two
// cache lines, the pair Intel's L2 spatial prefetcher fetches together.
const padWords = 128 / 4

// newPQBlocks allocates one block of size balls per worker in one
// backing array, with a padding granule before, between and after the
// workers' arrays, so two workers never write the same line or the same
// adjacent-line pair. A counted round's decide reuses a worker's block
// as its scan buffer: the draw that fills the block has ended by then.
func newPQBlocks(workers, size int) []pqBlock {
	stride := 2*size + padWords
	backing := make([]int32, padWords+workers*stride)
	blocks := make([]pqBlock, workers)
	for w := range blocks {
		b := backing[padWords+w*stride:]
		blocks[w] = pqBlock{vs: b[:size:size], idx: b[size : 2*size : 2*size]}
	}
	return blocks
}

// serverHalf is phase 2 of a round as the client loop sees it: the
// Runner's in-process server shards or the Driver's ServerBank.
type serverHalf interface {
	// reset rebuilds every server for a new run from initialLoads (nil =
	// all zero), marking servers that start at capacity in the loop's
	// burned mirror.
	reset(initialLoads []int) error
	// decide applies the threshold rule to the round's requests — the
	// routed lanes or the plain tally — sets every accepting server's bit
	// in the loop's accept set, and marks newly burned servers in the
	// burned mirror.
	decide() (newlyBurned, saturated int, err error)
	// loads returns the final per-server load vector.
	loads() ([]int32, error)
	// checkLoads verifies the final loads, whose sum is loadSum and whose
	// minimum is res.MinLoad, against res's accepted balls where the
	// server state is not this process's own.
	checkLoads(loads []int32, loadSum int64, res *Result) error
}

// clientLoop is the client half of the synchronous round, shared by the
// Runner and the Driver: the per-client random streams and alive counts,
// the active frontier, the draw (point query, row, or cached row) and
// the route of every ball, the accept count and frontier compaction, the
// neighborhood statistics, the starvation check and the Result. Both
// front ends run it against their own serverHalf, so their results are
// bit-for-bit equal by construction — the split only decides where the
// server state lives.
//
// Every run walks the active frontier from round 1 on. A round's
// destinations reach the servers one of three ways:
//
//   - Counted: a multi-worker round that draws by point query, when
//     directCount admits it, counts each worker's balls into the
//     worker's own byte tally (engine.ByteTally), and each shard owner
//     scans its window of all of them.
//   - Routed: every other round of a multi-worker run or of a Driver
//     routes the balls into per-(worker, shard) lanes of an
//     engine.Router and folds them into a stamped tally.
//   - One-lane: a one-worker, one-shard Runner counts straight into a
//     plain tally and scans its server window.
//
// The one-lane path follows from the resolved worker and shard counts;
// every other round picks counting or routing in beginRound, from the
// round's ball count and the point-query view as it stands then.
type clientLoop struct {
	topo     bipartite.Topology
	cfg      Config
	capacity int32
	d        int

	// csr is non-nil when topo is a materialized CSR graph, whose rows
	// are read zero-copy. pq is the point-query view of any other
	// topology that answers point queries: a ball's destination is one
	// point lookup instead of a Θ(Δ) row regeneration, with the same
	// Intn draw sequence, so results are bit-for-bit the row path's. Each
	// worker collects its balls' lookups in its pqBlocks entry and
	// resolves a block with one NeighborsAt call. csr and pq are nil for
	// row-regenerating topologies (Erdős–Rényi, churn under failures),
	// whose rows go through the per-worker nbrBuf scratch — or the
	// late-round row cache once the frontier's rows fit its budget.
	csr           *bipartite.Graph
	pq            bipartite.PointQueryable
	pqBlocks      []pqBlock
	nbrBuf        [][]int32
	maxDeg        int
	rowCache      *bipartite.RowCache
	rowCacheBuilt bool

	// versioned is non-nil when topo is mutable (bipartite.Versioned);
	// topoVersion is the version the caches were last synced to.
	// PatchTopology re-binds after an in-place mutation; beginRound
	// re-checks the version so a mutation that skipped PatchTopology can
	// never serve stale cached rows, lanes or point-query views.
	versioned   bipartite.Versioned
	topoVersion uint64

	pool   *engine.Pool
	router *engine.Router // nil on the one-lane path
	tally  *engine.Tally  // stamped iff router != nil
	// counted is set while the current round is counted into bytes
	// instead of routed; bytes is allocated by the first counted round.
	// cache is the probe directCount sizes against.
	counted bool
	bytes   *engine.ByteTally
	cache   engine.CacheInfo

	alive   []int32      // unassigned balls of client v
	streams []rng.Stream // private random stream of client v
	// frontier lists the clients with alive balls, ascending. choices
	// holds this round's destinations in draw order: the draw's chunk
	// [lo, hi) of the frontier writes its clients' balls from
	// choices[lo·d] on, and the update, whose chunks are the same, reads
	// them back from there.
	frontier []int32
	choices  []int32
	// kept[c] is frontier chunk c's survivor range after this round's
	// update (or the run's reset): the clients that kept balls,
	// compacted in place to the front of the chunk.
	kept []keptRange

	// burned mirrors the servers' burned flags for the neighborhood
	// statistics and the starvation check (the Runner's shards write it
	// directly). accepted holds one bit per server, set ⇔ the server
	// accepted this round's requests, and beginRound clears it.
	burned   []bool
	accepted []uint64

	// cumNbrReceived is Σ_{i≤t} r_i(N(v)) per client (TrackNeighborhoods);
	// assignments[v] collects the servers that accepted v's balls
	// (TrackAssignments).
	cumNbrReceived []int64
	assignments    [][]int32

	// Per-worker partial accumulators: order-independent sums and maxima,
	// the steal-schedule-safe reduction shapes.
	partialSent  []int64
	partialAcc   []int64
	partialAlive []int64
	partialFrac  []float64
	partialRecv  []int64
	partialKt    []float64

	observer RoundObserver
	tel      *runTel
}

// keptRange is a chunk's survivors: frontier[lo : lo+n].
type keptRange struct{ lo, n int }

// RoundObserver receives one callback per completed round with the
// round's request volume; the wire client uses it to timestamp round
// trips for the latency summary.
type RoundObserver func(round int, requests int64)

// validateInstance runs every check of a configuration against the
// instance shape: the configuration itself, the topology, and the
// lengths and ranges of the per-server and per-client inputs.
func validateInstance(topo bipartite.Topology, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := topo.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidGraph, err)
	}
	if err := CheckInitialLoads(cfg.InitialLoads, topo.NumServers()); err != nil {
		return err
	}
	if cfg.RequestCounts != nil {
		n := topo.NumClients()
		if len(cfg.RequestCounts) != n {
			return fmt.Errorf("core: RequestCounts has %d entries for %d clients", len(cfg.RequestCounts), n)
		}
		for v, c := range cfg.RequestCounts {
			if c < 0 || c > cfg.D {
				return fmt.Errorf("core: RequestCounts[%d] = %d outside [0, D=%d]", v, c, cfg.D)
			}
		}
	}
	return nil
}

// init validates cfg against topo and allocates the client half. The
// one-lane path is taken when the resolved run has one worker and one
// shard, unless alwaysRoute is set: a Driver always routes, since its
// batch is the concatenation of the folds' ascending per-shard lists.
func (l *clientLoop) init(topo bipartite.Topology, cfg Config, alwaysRoute bool) error {
	if err := validateInstance(topo, cfg); err != nil {
		return err
	}
	n, m := topo.NumClients(), topo.NumServers()
	l.pool = engine.NewPool(cfg.Workers)
	workers := l.pool.Workers()
	l.topo = topo
	l.cfg = cfg
	l.capacity = int32(cfg.Params().Capacity())
	l.d = cfg.D
	l.alive = make([]int32, n)
	l.choices = make([]int32, n*cfg.D)
	l.streams = make([]rng.Stream, n)
	l.frontier = make([]int32, 0, n)
	l.burned = make([]bool, m)
	l.accepted = make([]uint64, (m+63)/64)
	l.partialSent = make([]int64, workers)
	l.partialAcc = make([]int64, workers)
	l.partialAlive = make([]int64, workers)
	l.pqBlocks = newPQBlocks(workers, max(pqBlockBalls, cfg.D))
	if cfg.TrackNeighborhoods {
		l.cumNbrReceived = make([]int64, n)
		l.partialFrac = make([]float64, workers)
		l.partialRecv = make([]int64, workers)
		l.partialKt = make([]float64, workers)
	}
	if cfg.TrackAssignments {
		l.assignments = make([][]int32, n)
	}
	l.tel = newRunTel(cfg.Telemetry)
	instrumentPool(cfg.Telemetry, l.pool)
	l.tally = engine.NewTally(l.pool, m)
	l.cache = engine.DetectCache()
	shards := cfg.Shards
	if shards == 0 {
		shards = AutotuneShards(n, m, workers, l.cache)
	}
	if rt := engine.NewRouter(workers, shards, m); alwaysRoute || workers > 1 || rt.Shards() > 1 {
		l.router = rt
		l.tally.BeginStamped()
	}
	l.bindTopology(topo)
	return nil
}

// bindTopology installs topo as the adjacency source: the zero-copy CSR
// path, the point-query view, or row regeneration into per-worker
// scratch buffers; cached rows of the previous topology are dropped and
// the version-keyed caches synced.
func (l *clientLoop) bindTopology(topo bipartite.Topology) {
	l.topo = topo
	l.csr, _ = topo.(*bipartite.Graph)
	l.pq = nil
	if l.csr == nil {
		l.maxDeg = topo.MaxClientDegree()
		if l.nbrBuf == nil {
			l.nbrBuf = make([][]int32, l.pool.Workers())
			for w := range l.nbrBuf {
				l.nbrBuf[w] = make([]int32, 0, l.maxDeg)
			}
		}
		l.pq = bipartite.PointQuerier(topo)
	}
	if l.rowCache != nil {
		l.rowCache.Invalidate()
	}
	l.rowCacheBuilt = false
	l.versioned, _ = topo.(bipartite.Versioned)
	if l.versioned != nil {
		l.topoVersion = l.versioned.TopologyVersion()
		if l.router != nil {
			l.router.SyncTopologyVersion(l.topoVersion)
		}
	}
}

// countsRound reports whether a round that draws balls balls over the
// current topology is counted (see directCount) rather than routed.
func (l *clientLoop) countsRound(balls int64) bool {
	return l.router != nil && directCount(l.pool.Workers(), balls, l.topo.NumServers(), l.pq != nil, l.cache)
}

// SwapTopology replaces the topology with one of identical dimensions,
// keeping every allocated buffer. It is the cheap way to step a dynamic
// scenario whose admissibility graph is re-randomized between batches
// (E12): allocate once for the batch shape, then SwapTopology + Reseed
// per batch.
func (l *clientLoop) SwapTopology(topo bipartite.Topology) error {
	if err := topo.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidGraph, err)
	}
	if topo.NumClients() != l.topo.NumClients() || topo.NumServers() != l.topo.NumServers() {
		return fmt.Errorf("core: SwapTopology dimension mismatch: %dx%d -> %dx%d",
			l.topo.NumClients(), l.topo.NumServers(), topo.NumClients(), topo.NumServers())
	}
	l.bindTopology(topo)
	return nil
}

// PatchTopology re-binds the current topology after an in-place mutation
// (a churn.Topology whose edges were rewired, or whose clients/servers
// arrived, departed, failed or recovered between epochs). It is
// SwapTopology's counterpart for topologies that mutate instead of being
// replaced: the graph is revalidated, the degree bound refreshed, and the
// version-keyed caches (frontier row cache, route lanes, point-query
// view) re-synced. Dimensions cannot change.
func (l *clientLoop) PatchTopology() error {
	if err := l.topo.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidGraph, err)
	}
	l.bindTopology(l.topo)
	return nil
}

// Reseed sets the protocol seed of the next Run. Every Run starts from
// freshly reset state, so a reseeded run is independent of earlier ones.
func (l *clientLoop) Reseed(seed uint64) { l.cfg.Seed = seed }

// neighbors returns client v's neighborhood for use by worker w: aliased
// from the CSR arrays, read from the row cache when v's row is pinned
// there, and otherwise regenerated into w's scratch buffer, which stays
// valid until w's next call.
func (l *clientLoop) neighbors(w, v int) []int32 {
	if l.csr != nil {
		return l.csr.ClientNeighbors(v)
	}
	if l.rowCacheBuilt {
		if row, ok := l.rowCache.CachedRow(v); ok {
			return row
		}
	}
	l.nbrBuf[w] = l.topo.AppendClientNeighbors(v, l.nbrBuf[w][:0])
	return l.nbrBuf[w]
}

// reset rebuilds the client-side run state: alive counts, the frontier,
// the tracking accumulators and the random streams. It returns the
// run's ball total. The per-client pass runs on the pool: each chunk
// of clients sets its alive counts and streams (client v's stream is
// rng.StreamAt(seed, v), the v-th of the family ReseedStreamSlice
// derives) and lists its clients with balls at its own front, and the
// chunk prefixes are joined in chunk order as update joins them.
func (l *clientLoop) reset() (aliveTotal int64) {
	n := len(l.alive)
	nc := l.growKept(n)
	l.frontier = l.frontier[:n]
	clear(l.partialAlive)
	d, counts, seed := int32(l.d), l.cfg.RequestCounts, l.cfg.Seed
	l.pool.StealRange(n, func(w, chunk, lo, hi int) {
		kept := lo
		var total int64
		for v := lo; v < hi; v++ {
			a := d
			if counts != nil {
				a = int32(counts[v])
			}
			l.alive[v] = a
			l.streams[v] = rng.StreamAt(seed, v)
			if a > 0 {
				l.frontier[kept] = int32(v)
				kept++
				total += int64(a)
			}
		}
		l.kept[chunk] = keptRange{lo, kept - lo}
		l.partialAlive[w] += total
	})
	l.joinKept(nc)
	for _, a := range l.partialAlive {
		aliveTotal += a
	}
	clear(l.cumNbrReceived)
	for v := range l.assignments {
		l.assignments[v] = l.assignments[v][:0]
	}
	if l.rowCache != nil {
		l.rowCache.Invalidate()
	}
	l.rowCacheBuilt = false
	return aliveTotal
}

// growKept sizes kept for the chunks of a range of n frontier entries
// and returns their count.
func (l *clientLoop) growKept(n int) int {
	nc := l.pool.NumChunks(n)
	for len(l.kept) < nc {
		l.kept = append(l.kept, keptRange{})
	}
	return nc
}

// joinKept moves the survivor ranges of the first nc chunks together in
// chunk order and truncates the frontier to them. A range already in
// place (every chunk before it kept all its clients) is not copied.
func (l *clientLoop) joinKept(nc int) {
	next := 0
	for _, k := range l.kept[:nc] {
		if k.lo != next {
			copy(l.frontier[next:], l.frontier[k.lo:k.lo+k.n])
		}
		next += k.n
	}
	l.frontier = l.frontier[:next]
}

// run executes the protocol against half until completion or the round
// cap and assembles the Result.
func (l *clientLoop) run(half serverHalf) (*Result, error) {
	n, m := l.topo.NumClients(), l.topo.NumServers()
	maxRounds := l.cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = DefaultMaxRounds(n)
	}
	trackRounds := l.cfg.TrackRounds || l.cfg.TrackNeighborhoods
	res := &Result{
		Variant:    l.cfg.Variant,
		Params:     l.cfg.Params(),
		NumClients: n,
		NumServers: m,
	}
	if trackRounds {
		res.PerRound = make([]RoundStats, 0, CompletionBound(n)+4)
	}

	aliveTotal := l.reset()
	if err := half.reset(l.cfg.InitialLoads); err != nil {
		return nil, err
	}
	res.TotalBalls = aliveTotal
	burnedTotal := 0
	round := 0
	for aliveTotal > 0 && round < maxRounds {
		round++
		l.beginRound(aliveTotal)
		sp := telemetry.StartSpan(l.tel.drawHist())
		sent := l.draw()
		sp.End()
		newlyBurned, saturated, err := half.decide()
		if err != nil {
			return nil, fmt.Errorf("core: round %d: %w", round, err)
		}
		sp = telemetry.StartSpan(l.tel.updateHist())
		accepted, stillAlive := l.update()
		sp.End()
		l.tel.countRound(sent, accepted)

		burnedTotal += newlyBurned
		res.TotalRequests += sent
		res.SaturationEvents += int64(saturated)
		if trackRounds {
			stats := RoundStats{
				Round:              round,
				AliveBalls:         int(aliveTotal),
				RequestsSent:       int(sent),
				RequestsAccepted:   int(accepted),
				NewlyBurned:        newlyBurned,
				BurnedTotal:        burnedTotal,
				SaturatedThisRound: saturated,
			}
			if l.cfg.TrackNeighborhoods {
				stats.MaxNeighborhoodBurnedFrac, stats.MaxNeighborhoodReceived, stats.MaxKt =
					l.neighborhoodStats()
			}
			res.PerRound = append(res.PerRound, stats)
		}
		if l.observer != nil {
			l.observer(round, sent)
		}

		aliveTotal = stillAlive
		// A SAER round that accepted nothing and burned nothing may mean
		// some client's whole neighborhood is burned: such a client can
		// never place its remaining balls and the run is hopeless (this
		// only happens when c is far below the paper's threshold).
		if accepted == 0 && newlyBurned == 0 && aliveTotal > 0 && l.cfg.Variant == SAER && l.hasStarvedClient() {
			break
		}
	}

	res.Rounds = round
	res.Work = 2 * res.TotalRequests
	res.UnassignedBalls = int(aliveTotal)
	res.Completed = aliveTotal == 0
	res.BurnedServers = burnedTotal
	loads, err := half.loads()
	if err != nil {
		return nil, err
	}
	if len(loads) != m {
		return nil, fmt.Errorf("core: %d loads for %d servers", len(loads), m)
	}
	if err := half.checkLoads(loads, l.fillLoadStats(res, loads), res); err != nil {
		return nil, err
	}
	if l.cfg.TrackAssignments {
		res.Assignments = make([][]int32, len(l.assignments))
		for v, a := range l.assignments {
			res.Assignments[v] = append([]int32(nil), a...)
		}
	}
	return res, nil
}

// beginRound syncs the version-keyed caches, picks counting or routing
// for a round of balls balls, clears the accept set and the tally, and
// snapshots the frontier's rows into the row cache once they fit its
// budget.
func (l *clientLoop) beginRound(balls int64) {
	if l.versioned != nil {
		if v := l.versioned.TopologyVersion(); v != l.topoVersion {
			l.topoVersion = v
			if l.router != nil {
				l.router.SyncTopologyVersion(v)
			}
			// Mutations can flip point-queryability (churn failures make
			// rows read-time filtered, recoveries make them queryable
			// again) and move the degree bound, so both are version-keyed.
			if l.csr == nil {
				l.pq = bipartite.PointQuerier(l.topo)
				l.maxDeg = l.topo.MaxClientDegree()
			}
		}
		// The row cache carries its own version stamp, so its staleness
		// check holds even if this bookkeeping and the cache disagree.
		if l.rowCacheBuilt && !l.rowCache.ValidFor(l.topoVersion) {
			l.rowCache.Invalidate()
			l.rowCacheBuilt = false
		}
	}
	l.counted = l.countsRound(balls)
	if l.counted && l.bytes == nil {
		l.bytes = engine.NewByteTally(l.pool.Workers(), l.topo.NumServers())
	}
	clear(l.accepted)
	l.tally.Reset()
	// One snapshot per run suffices: the frontier only shrinks, so every
	// later survivor is already cached. Point-queryable topologies skip
	// it — their draws never touch rows.
	if l.csr == nil && l.pq == nil && !l.rowCacheBuilt &&
		len(l.frontier)*l.maxDeg <= rowCacheEdgeBudget(l.topo.NumClients()) {
		if l.rowCache == nil {
			l.rowCache = bipartite.NewRowCache(l.topo.NumClients())
			if l.tel != nil {
				l.rowCache.SetMetrics(l.tel.rowCache)
			}
		}
		l.rowCache.Cache(l.topo, l.frontier)
		l.rowCache.SetVersion(l.topoVersion)
		l.rowCacheBuilt = true
	}
}

// draw is phase 1: every frontier client draws a uniform destination in
// its neighborhood for each alive ball, from its private stream, and
// hands it to its worker's sink: the worker's byte tally on a counted
// round, the owning shard's lane on a routed one, the plain tally on the
// one-lane path. The draws depend only on the per-client streams, so the
// counted or routed multiset is independent of the worker count and
// the steal schedule. Chunk [lo, hi) of the frontier writes its balls to
// choices from lo·d on, in draw order: client by client, each client's
// balls in stream order. On the point-query path a worker draws the row
// indices of whole clients into its block and resolves the block, into
// its stretch of choices, before it would overflow. Returns the number
// of requests submitted.
func (l *clientLoop) draw() int64 {
	if l.router != nil {
		l.router.ResetLanes()
	}
	clear(l.partialSent)
	l.pool.StealRange(len(l.frontier), func(w, _, lo, hi int) {
		sk := l.sink(w)
		out := l.choices[lo*l.d:]
		pos := 0
		if pq := l.pq; pq != nil {
			blk := &l.pqBlocks[w]
			vs, idx := blk.vs, blk.idx
			n := 0
			for _, vv := range l.frontier[lo:hi] {
				v := int(vv)
				a := int(l.alive[v])
				if n+a > len(vs) {
					resolve(pq, blk, out[pos:pos+n], &sk)
					pos += n
					n = 0
				}
				src := &l.streams[v]
				deg := pq.ClientDegree(v)
				for range a {
					vs[n], idx[n] = vv, int32(src.Intn(deg))
					n++
				}
			}
			resolve(pq, blk, out[pos:pos+n], &sk)
			pos += n
		} else {
			// The row path hands its balls to the sink in batches of at
			// least a block, as the point-query path does, so the sink's
			// dispatch is not paid per client.
			put := 0
			for _, vv := range l.frontier[lo:hi] {
				v := int(vv)
				src := &l.streams[v]
				dst := out[pos : pos+int(l.alive[v])]
				nbrs := l.neighbors(w, v)
				deg := len(nbrs)
				for i := range dst {
					dst[i] = nbrs[src.Intn(deg)]
				}
				pos += len(dst)
				if pos-put >= pqBlockBalls {
					sk.put(out[put:pos])
					put = pos
				}
			}
			sk.put(out[put:pos])
		}
		l.partialSent[w] += int64(pos)
	})
	if l.counted {
		l.bytes.Seal()
	}
	var sent int64
	for _, s := range l.partialSent {
		sent += s
	}
	return sent
}

// sink is where worker w's destinations go this round: its byte tally
// on a counted round (bytes non-nil), its shard lanes on a routed one
// (lanes non-nil), or the plain tally on the one-lane path.
type sink struct {
	bytes *engine.ByteTally
	w     int
	lanes [][]int32
	shift uint
	plain []int32
}

// sink returns worker w's sink for the current round.
func (l *clientLoop) sink(w int) sink {
	switch {
	case l.counted:
		return sink{bytes: l.bytes, w: w}
	case l.router != nil:
		return sink{lanes: l.router.Lanes(w), shift: l.router.Shift()}
	}
	return sink{plain: l.tally.Merged()}
}

// put hands every destination of dst to the sink.
func (sk *sink) put(dst []int32) {
	switch {
	case sk.bytes != nil:
		sk.bytes.Add(sk.w, dst)
	case sk.lanes != nil:
		lanes, shift := sk.lanes, sk.shift
		for _, u := range dst {
			s := int(u) >> shift
			lanes[s] = append(lanes[s], u)
		}
	default:
		counts := sk.plain
		for _, u := range dst {
			counts[u]++
		}
	}
}

// resolve answers the first len(out) balls of blk with one NeighborsAt
// call, which writes their destinations to out, and puts them in draw
// order.
func resolve(pq bipartite.PointQueryable, blk *pqBlock, out []int32, sk *sink) {
	if len(out) == 0 {
		return
	}
	pq.NeighborsAt(blk.vs[:len(out)], blk.idx[:len(out)], out)
	sk.put(out)
}

// scan reads the next stretch of window [pos, hi) of a counted round's
// byte tallies into worker w's point-query block, which the draw no
// longer needs: the stretch's nonzero servers, ascending, with their
// counts, and the position the next stretch starts at (hi when the
// window is done). Under TrackNeighborhoods it also stamps the counts
// into the tally, where ReceivedAt reads them.
func (l *clientLoop) scan(w, pos, hi int) (servers, counts []int32, next int) {
	blk := &l.pqBlocks[w]
	k, next := l.bytes.Scan(pos, hi, blk.vs, blk.idx)
	servers, counts = blk.vs[:k], blk.idx[:k]
	if l.cumNbrReceived != nil {
		l.tally.Stamp(servers, counts)
	}
	return servers, counts, next
}

// update counts each frontier client's accepted requests, retires them,
// and compacts the frontier. Its chunks are the draw's, since the
// frontier has the same length, so chunk [lo, hi) reads its clients'
// destinations back from choices[lo·d] in draw order and tests each
// against the accept set. Every chunk moves its survivors to its own
// front, then the chunk prefixes are joined in chunk order, which keeps
// the frontier ascending for every steal schedule. Returns the accepted
// requests and the balls still alive.
func (l *clientLoop) update() (accepted, alive int64) {
	nc := l.growKept(len(l.frontier))
	clear(l.partialAcc)
	clear(l.partialAlive)
	l.pool.StealRange(len(l.frontier), func(w, chunk, lo, hi int) {
		set := l.accepted
		out := l.choices[lo*l.d:]
		pos := 0
		kept := lo
		var acc, still int64
		for _, vv := range l.frontier[lo:hi] {
			v := int(vv)
			a := l.alive[v]
			var got int32
			for _, u := range out[pos : pos+int(a)] {
				if set[u>>6]&(1<<(u&63)) != 0 {
					got++
					if l.assignments != nil {
						l.assignments[v] = append(l.assignments[v], u)
					}
				}
			}
			pos += int(a)
			rem := a - got
			l.alive[v] = rem
			if rem > 0 {
				l.frontier[kept] = vv
				kept++
				still += int64(rem)
			}
			acc += int64(got)
		}
		l.kept[chunk] = keptRange{lo, kept - lo}
		l.partialAcc[w] += acc
		l.partialAlive[w] += still
	})
	l.joinKept(nc)
	for w := range l.partialAcc {
		accepted += l.partialAcc[w]
		alive += l.partialAlive[w]
	}
	return accepted, alive
}

// neighborhoodStats computes S_t, r_t and K_t (Definitions 3, 5, 6) for
// the current round from the burned mirror and the round's received
// counts. It costs O(|E|) and runs only under TrackNeighborhoods; the
// per-worker maxima fold after the sweep (order-independent, so
// steal-schedule-safe).
func (l *clientLoop) neighborhoodStats() (maxBurnedFrac float64, maxReceived int, maxKt float64) {
	cd := float64(l.cfg.C) * float64(l.d)
	clear(l.partialFrac)
	clear(l.partialRecv)
	clear(l.partialKt)
	l.pool.StealRange(l.topo.NumClients(), func(w, _, lo, hi int) {
		frac, recv, kt := l.partialFrac[w], l.partialRecv[w], l.partialKt[w]
		for v := lo; v < hi; v++ {
			nbrs := l.neighbors(w, v)
			if len(nbrs) == 0 {
				continue
			}
			var burnedCnt int
			var recvSum int64
			for _, u := range nbrs {
				if l.burned[u] {
					burnedCnt++
				}
				recvSum += int64(l.tally.ReceivedAt(u))
			}
			if f := float64(burnedCnt) / float64(len(nbrs)); f > frac {
				frac = f
			}
			if recvSum > recv {
				recv = recvSum
			}
			l.cumNbrReceived[v] += recvSum
			if k := float64(l.cumNbrReceived[v]) / (cd * float64(len(nbrs))); k > kt {
				kt = k
			}
		}
		l.partialFrac[w], l.partialRecv[w], l.partialKt[w] = frac, recv, kt
	})
	var recv int64
	for w := range l.partialFrac {
		maxBurnedFrac = max(maxBurnedFrac, l.partialFrac[w])
		recv = max(recv, l.partialRecv[w])
		maxKt = max(maxKt, l.partialKt[w])
	}
	return maxBurnedFrac, int(recv), maxKt
}

// hasStarvedClient reports whether some frontier client's whole
// neighborhood is burned (the SAER hopeless-run early exit).
func (l *clientLoop) hasStarvedClient() bool {
	for _, v := range l.frontier {
		starved := true
		for _, u := range l.neighbors(0, int(v)) {
			if !l.burned[u] {
				starved = false
				break
			}
		}
		if starved {
			return true
		}
	}
	return false
}

// fillLoadStats computes the final load summary (and optionally the full
// load vector) into res and returns the loads' exact sum. The scan is
// serial: at m = 2²⁰ it reads 4 MB, about 1 ms of a 55 ms pq-dense run.
func (l *clientLoop) fillLoadStats(res *Result, loads []int32) (sum int64) {
	maxLoad, minLoad := int32(0), int32(math.MaxInt32)
	for _, ld := range loads {
		maxLoad = max(maxLoad, ld)
		minLoad = min(minLoad, ld)
		sum += int64(ld)
	}
	if len(loads) == 0 {
		minLoad = 0
	}
	res.MaxLoad = int(maxLoad)
	res.MinLoad = int(minLoad)
	res.MeanLoad = float64(sum) / float64(len(loads))
	if l.cfg.TrackLoads {
		res.Loads = make([]int, len(loads))
		for u, ld := range loads {
			res.Loads[u] = int(ld)
		}
	}
	return sum
}
