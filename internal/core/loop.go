package core

import (
	"fmt"
	"math"

	"repro/internal/bipartite"
	"repro/internal/engine"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// pqBlockBalls is the number of balls a point-query block holds: enough
// to amortize one NeighborsAt call over whole kernel blocks, few enough
// that a worker's three arrays stay in L1.
const pqBlockBalls = 128

// pqBlock is one worker's point-query scratch: ball j of the block
// belongs to client vs[j], and idx[j] holds its client's degree until
// the block draw turns it, in place, into the ball's row index.
// NeighborsAt writes the block's destinations straight into the chunk's
// stretch of choices.
type pqBlock struct{ vs, idx []int32 }

// padWords is the number of int32s in the 128-byte padding granule: two
// cache lines, the pair Intel's L2 spatial prefetcher fetches together.
const padWords = 128 / 4

// newPQBlocks allocates one block of size balls per worker in one
// backing array, with a padding granule before, between and after the
// workers' arrays, so two workers never write the same line or the same
// adjacent-line pair.
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
	// decide applies the threshold rule to the round's requests, which
	// it reads shard by shard: a counted round densely off the byte
	// tallies, a routed one as each shard's fold lists it (foldShard),
	// sets every accepting server's bit in the loop's accept set, and
	// marks newly burned servers in the burned mirror.
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
// the active frontier, the draw (point query or row) and the route of
// every ball, the accept count and frontier compaction, the
// neighborhood statistics, the starvation check and the Result. Both
// front ends run it against their own serverHalf, so their results are
// bit-for-bit equal by construction — the split only decides where the
// server state lives.
//
// Every run walks the active frontier from round 1 on. A round's
// destinations reach the servers one of two ways, and the way fixes how
// the round is decided:
//
//   - Counted: each worker counts its balls into its own byte tally
//     (engine.ByteTally), and the round is decided densely: the Runner's
//     shard owners decide their windows straight off the tallies
//     (ServerShard.decideCounted), and a Driver folds them into one
//     byte per server for its bank's counted-round method.
//   - Routed: the balls go into per-(worker, shard) lanes of an
//     engine.Router, each shard owner folds its lanes into a stamped
//     tally (foldShard), and the round is decided as (server, count)
//     pairs: the Runner applies the rule to each shard's touched
//     servers, and a Driver ships them to its bank as one batch.
//
// beginRound picks one per round with countsRound: directCount, from
// the resolved worker and shard counts, the round's ball count and the
// point-query view as it stands then, vetoed on a Driver whose bank
// cannot take the round densely (shipsDense).
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
	// worker collects its balls in its pqBlocks entry and resolves a
	// block with one rng.IntnBlock and one NeighborsAt call; pqDeg is
	// pq's UniformDegree, so a uniform topology's expansion asks no
	// client for its degree. csr and pq are nil for row-regenerating
	// topologies (Erdős–Rényi, churn under failures), whose rows are
	// regenerated every round into the per-worker nbrBuf scratch.
	csr      *bipartite.Graph
	pq       bipartite.PointQueryable
	pqDeg    int
	pqBlocks []pqBlock
	nbrBuf   [][]int32

	// versioned is non-nil when topo is mutable (bipartite.Versioned);
	// topoVersion is the version the point-query view was last derived
	// at. PatchTopology re-binds after an in-place mutation; beginRound
	// re-checks the version so a mutation that skipped PatchTopology can
	// never serve a stale point-query view.
	versioned   bipartite.Versioned
	topoVersion uint64

	pool   *engine.Pool
	router *engine.Router
	// viaBank is set on a Driver, and denseBank when its bank has the
	// counted-round method: a Driver decides a counted round only through
	// that method, so countsRound vetoes the rounds shipsDense would not
	// ship. A Runner decides every counted round densely in process.
	viaBank, denseBank bool
	// counted is set while the current round is counted into bytes
	// instead of routed. bytes is allocated by the first counted round,
	// and tally, which routed rounds fold into, by the first routed one.
	// cache is the probe directCount sizes against.
	counted bool
	bytes   *engine.ByteTally
	tally   *engine.Tally
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

	// received[u] is server u's request count this round and
	// cumNbrReceived[v] is Σ_{i≤t} r_i(N(v)), both under
	// TrackNeighborhoods: the decide fills received (foldShard, the
	// Runner's counted pass or the Driver's fold) and beginRound clears
	// it. assignments[v] collects the servers that accepted v's balls
	// (TrackAssignments).
	received       []int32
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

// init validates cfg against topo and allocates the client half.
func (l *clientLoop) init(topo bipartite.Topology, cfg Config) error {
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
		l.received = make([]int32, m)
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
	l.cache = engine.DetectCache()
	shards := cfg.Shards
	if shards == 0 {
		shards = AutotuneShards(n, m, workers, l.cache)
	}
	l.router = engine.NewRouter(workers, shards, m)
	l.bindTopology(topo)
	return nil
}

// bindTopology installs topo as the adjacency source: the zero-copy CSR
// path, the point-query view, or row regeneration into per-worker
// scratch buffers; and records the topology version.
func (l *clientLoop) bindTopology(topo bipartite.Topology) {
	l.topo = topo
	l.csr, _ = topo.(*bipartite.Graph)
	l.pq, l.pqDeg = nil, 0
	if l.csr == nil {
		if l.nbrBuf == nil {
			l.nbrBuf = make([][]int32, l.pool.Workers())
			for w := range l.nbrBuf {
				l.nbrBuf[w] = make([]int32, 0, topo.MaxClientDegree())
			}
		}
		l.bindPointQuery()
	}
	l.versioned, _ = topo.(bipartite.Versioned)
	if l.versioned != nil {
		l.topoVersion = l.versioned.TopologyVersion()
	}
}

// bindPointQuery re-derives the topology's point-query view and its
// uniform client degree.
func (l *clientLoop) bindPointQuery() {
	l.pq, l.pqDeg = bipartite.PointQuerier(l.topo), 0
	if l.pq != nil {
		l.pqDeg = l.pq.UniformDegree()
	}
}

// countsRound reports whether a round that draws balls balls over the
// current topology is counted (see directCount) rather than routed. A
// counted round is always decided densely, so a Driver counts only the
// rounds it can ship densely (shipsDense).
func (l *clientLoop) countsRound(balls int64) bool {
	m := l.topo.NumServers()
	if l.viaBank && !shipsDense(l.denseBank, balls, m) {
		return false
	}
	return directCount(l.pool.Workers(), l.router.Shards(), balls, m, l.pq != nil, l.cache)
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
// replaced: the graph is revalidated and the point-query view
// re-derived. Dimensions cannot change.
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
// from the CSR arrays, or regenerated into w's scratch buffer, which
// stays valid until w's next call.
func (l *clientLoop) neighbors(w, v int) []int32 {
	if l.csr != nil {
		return l.csr.ClientNeighbors(v)
	}
	l.nbrBuf[w] = l.topo.AppendClientNeighbors(v, l.nbrBuf[w][:0])
	return l.nbrBuf[w]
}

// reset rebuilds the client-side run state: alive counts, the frontier,
// the tracking accumulators and the random streams. It returns the
// run's ball total. The per-client pass runs on the pool: each chunk
// of clients seeds its streams with one rng.StreamsAt call (client v's
// stream is rng.StreamAt(seed, v), the v-th of the family
// ReseedStreamSlice derives), sets its alive counts and lists its
// clients with balls at its own front, and the chunk prefixes are
// joined in chunk order as update joins them.
func (l *clientLoop) reset() (aliveTotal int64) {
	n := len(l.alive)
	nc := l.growKept(n)
	l.frontier = l.frontier[:n]
	clear(l.partialAlive)
	d, counts, seed := int32(l.d), l.cfg.RequestCounts, l.cfg.Seed
	l.pool.StealRange(n, func(w, chunk, lo, hi int) {
		rng.StreamsAt(l.streams[lo:hi], seed, lo)
		kept := lo
		var total int64
		for v := lo; v < hi; v++ {
			a := d
			if counts != nil {
				a = int32(counts[v])
			}
			l.alive[v] = a
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

// beginRound re-derives the point-query view if the topology version
// moved, picks counting or routing for a round of balls balls, and
// clears the accept set, the received counts and, on a routed round,
// the tally.
func (l *clientLoop) beginRound(balls int64) {
	if l.versioned != nil {
		if v := l.versioned.TopologyVersion(); v != l.topoVersion {
			// Mutations can flip point-queryability (churn failures make
			// rows read-time filtered, recoveries make them queryable
			// again) and move the degrees, so the view is version-keyed.
			l.topoVersion = v
			l.bindPointQuery()
		}
	}
	l.counted = l.countsRound(balls)
	switch m := l.topo.NumServers(); {
	case l.counted && l.bytes == nil:
		l.bytes = engine.NewByteTally(l.pool.Workers(), m)
	case !l.counted && l.tally == nil:
		l.tally = engine.NewTally(l.pool, m)
	case !l.counted:
		l.tally.StampedReset()
	}
	clear(l.accepted)
	clear(l.received)
}

// draw is phase 1: every frontier client draws a uniform destination in
// its neighborhood for each alive ball, from its private stream, and
// hands it to its worker's sink: the worker's byte tally on a counted
// round, the owning shard's lane on a routed one. The draws depend only
// on the per-client streams, so the counted or routed multiset is
// independent of the worker count and the steal schedule. Chunk [lo, hi)
// of the frontier writes its balls to choices from lo·d on, in draw
// order: client by client, each client's balls in stream order. The
// point-query path is drawBlocks; the row path draws ball by ball.
// Returns the number of requests submitted.
func (l *clientLoop) draw() int64 {
	l.router.ResetLanes()
	clear(l.partialSent)
	l.pool.StealRange(len(l.frontier), func(w, _, lo, hi int) {
		sk := l.sink(w)
		out := l.choices[lo*l.d:]
		pos := 0
		if l.pq != nil {
			pos = l.drawBlocks(w, lo, hi, out, &sk)
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
// on a counted round (bytes non-nil), its shard lanes on a routed one.
type sink struct {
	bytes *engine.ByteTally
	w     int
	lanes [][]int32
	shift uint
}

// sink returns worker w's sink for the current round.
func (l *clientLoop) sink(w int) sink {
	if l.counted {
		return sink{bytes: l.bytes, w: w}
	}
	return sink{lanes: l.router.Lanes(w), shift: l.router.Shift()}
}

// put hands every destination of dst to the sink.
func (sk *sink) put(dst []int32) {
	if sk.bytes != nil {
		sk.bytes.Add(sk.w, dst)
		return
	}
	lanes, shift := sk.lanes, sk.shift
	for _, u := range dst {
		s := int(u) >> shift
		lanes[s] = append(lanes[s], u)
	}
}

// drawBlocks is the point-query draw of frontier chunk [lo, hi) on
// worker w. It fills w's block with one (client, degree) entry per
// alive ball of each client in turn, up to the first client that would
// overflow it, so no client straddles two blocks, and resolves the
// block into out. It returns the number of balls drawn.
func (l *clientLoop) drawBlocks(w, lo, hi int, out []int32, sk *sink) int {
	blk := &l.pqBlocks[w]
	frontier := l.frontier[lo:hi]
	pos := 0
	for len(frontier) > 0 {
		var n, used int
		if l.pqDeg > 0 {
			n, used = expandUniform(blk, frontier, l.alive, int32(l.pqDeg))
		} else {
			n, used = expandDegrees(blk, frontier, l.alive, l.pq)
		}
		l.resolve(blk, out[pos:pos+n], sk)
		pos += n
		frontier = frontier[used:]
	}
	return pos
}

// expandUniform fills blk with the frontier's clients, all of degree
// deg, from the first on, and returns the entries written and the
// clients they hold. Its loop calls nothing and reads no clientLoop
// field, so nothing is reloaded per client around a call.
func expandUniform(blk *pqBlock, frontier, alive []int32, deg int32) (n, used int) {
	vs, idx := blk.vs, blk.idx
	for i, v := range frontier {
		a := int(alive[v])
		if n+a > len(vs) {
			return n, i
		}
		for k := n; k < n+a; k++ {
			vs[k], idx[k] = v, deg
		}
		n += a
	}
	return n, len(frontier)
}

// expandDegrees is expandUniform for a topology whose clients' degrees
// differ: it asks pq for each client's degree.
func expandDegrees(blk *pqBlock, frontier, alive []int32, pq bipartite.PointQueryable) (n, used int) {
	vs, idx := blk.vs, blk.idx
	for i, v := range frontier {
		a := int(alive[v])
		if n+a > len(vs) {
			return n, i
		}
		deg := int32(pq.ClientDegree(int(v)))
		for k := n; k < n+a; k++ {
			vs[k], idx[k] = v, deg
		}
		n += a
	}
	return n, len(frontier)
}

// resolve answers the first len(out) balls of blk: one rng.IntnBlock
// call draws their row indices from their clients' streams over the
// degrees in idx, in place, one NeighborsAt call writes their
// destinations to out, and the sink gets them in draw order.
func (l *clientLoop) resolve(blk *pqBlock, out []int32, sk *sink) {
	if len(out) == 0 {
		return
	}
	vs, idx := blk.vs[:len(out)], blk.idx[:len(out)]
	rng.IntnBlock(l.streams, vs, idx, idx)
	l.pq.NeighborsAt(vs, idx, out)
	sk.put(out)
}

// foldShard folds shard s's lanes into the stamped tally and returns
// the shard's touched servers, ascending, whose counts the tally's
// Merged array holds by server id; under TrackNeighborhoods it records
// them in received. Owners of distinct shards call it concurrently.
func (l *clientLoop) foldShard(s int) []int32 {
	touched := l.router.FoldShard(s, l.tally)
	if l.received != nil {
		merged := l.tally.Merged()
		for _, u := range touched {
			l.received[u] = merged[u]
		}
	}
	return touched
}

// update counts each frontier client's accepted requests, retires them,
// and compacts the frontier. Its chunks are the draw's, since the
// frontier has the same length, so chunk [lo, hi) reads its clients'
// destinations back from choices[lo·d] in draw order and tests each
// against the accept set, in retire. Under TrackAssignments the chunk
// first records its accepted destinations (assign). Every chunk moves
// its survivors to its own front, then the chunk prefixes are joined in
// chunk order, which keeps the frontier ascending for every steal
// schedule. Returns the accepted requests and the balls still alive.
func (l *clientLoop) update() (accepted, alive int64) {
	nc := l.growKept(len(l.frontier))
	clear(l.partialAcc)
	clear(l.partialAlive)
	l.pool.StealRange(len(l.frontier), func(w, chunk, lo, hi int) {
		frontier, choices := l.frontier[lo:hi], l.choices[lo*l.d:]
		if l.assignments != nil {
			l.assign(frontier, choices)
		}
		kept, acc, still := retire(frontier, l.alive, choices, l.accepted)
		l.kept[chunk] = keptRange{lo, kept}
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

// retire is update's pass over one frontier chunk, whose clients' balls
// lie in choices in draw order: it counts each client's destinations in
// the accept set without a branch, writes the client's remaining balls
// to alive, and moves the clients that kept balls to the chunk's front,
// in order. It calls nothing and reads no clientLoop field, so nothing
// is reloaded per client around a call. It returns the survivors'
// count, the accepted balls and the balls still alive.
func retire(frontier, alive, choices []int32, set []uint64) (kept int, acc, still int64) {
	pos := 0
	for _, v := range frontier {
		a := alive[v]
		var got int32
		for _, u := range choices[pos : pos+int(a)] {
			got += int32(set[uint32(u)>>6] >> (uint32(u) & 63) & 1)
		}
		pos += int(a)
		rem := a - got
		alive[v] = rem
		frontier[kept] = v
		kept += int(b2u(rem > 0))
		still += int64(rem)
	}
	return kept, int64(pos) - still, still
}

// assign appends each accepted destination of a frontier chunk to its
// client's assignment list, in draw order (TrackAssignments). It runs
// before retire changes the chunk's alive counts.
func (l *clientLoop) assign(frontier, choices []int32) {
	pos := 0
	for _, v := range frontier {
		a := int(l.alive[v])
		for _, u := range choices[pos : pos+a] {
			if l.accepted[u>>6]>>(u&63)&1 != 0 {
				l.assignments[v] = append(l.assignments[v], u)
			}
		}
		pos += a
	}
}

// neighborhoodStats computes S_t, r_t and K_t (Definitions 3, 5, 6) for
// the current round from the burned mirror and the round's received
// counts, which it reads with one plain load per edge. It costs O(|E|)
// and runs only under TrackNeighborhoods; the per-worker maxima fold
// after the sweep (order-independent, so steal-schedule-safe).
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
				recvSum += int64(l.received[u])
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
// serial: at m = 2²⁰ it reads 4 MB, about 0.7 ms of a 15 ms pq-dense
// run on a 2-vCPU Xeon VM (BenchmarkRunPasses/loadscan).
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
