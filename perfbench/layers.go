package main

import (
	"errors"
	"slices"
	"sort"
	"time"

	"repro/internal/bipartite"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/rng"
)

// layerData collects a traced run's per-layer samples. Every field is
// filled from the benchmark's own code, around calls into the layers'
// public functions; nothing inside the program is instrumented.
type layerData struct {
	// tracedWall is each traced trial's timed region; sent and accepted
	// sum the traced trials' per-round series.
	tracedWall     []time.Duration
	sent, accepted int64

	// round1 is the time of a run stopped after round 1 at a traced
	// trial's seed and state, and tail the trial's run time minus it.
	round1, tail []time.Duration

	// The Driver split: whole-run wall time, summed over the split runs,
	// and the bank counters over the same runs.
	splitRuns int
	splitWall time.Duration
	split     bankCounters

	// Replays of round 1 through the layers' calls, in ns per call.
	intnNs, neighborAtNs, rowNsPerEdge, routeFoldNs float64

	// churn-rows epochs: Scheduler.Step minus Executor.RunEpoch
	// (mutate), RunEpoch alone (epochRun), epochs whose topology
	// answered point queries, and re-injected balls.
	epochs, pqEpochs int
	mutate, epochRun []time.Duration
	reinjected       int64

	// wire-loopback: the kept executions' per-round scatter/gather round
	// trips; the round trips of every execution, with the server shards'
	// decide time over the same rounds; and the bytes the frame format
	// carries for the balls placed.
	rtts        []time.Duration
	rttSum      time.Duration
	rttRounds   int
	decideNanos uint64
	wireBytes   int64
	wirePlaced  int64
}

// addRound1 records one round-1-only run against the full run at the
// same seed and state.
func (ld *layerData) addRound1(round1, full time.Duration) {
	ld.round1 = append(ld.round1, round1)
	ld.tail = append(ld.tail, full-round1)
}

// addSplit records one Driver run: its wall time and the bank counters
// it added.
func (ld *layerData) addSplit(wall time.Duration, c bankCounters) {
	ld.splitRuns++
	ld.splitWall += wall
	ld.split = ld.split.add(c)
}

// runSplit runs dr at seed over its timedBank, through cleanest, and
// records the kept execution's split.
func (ld *layerData) runSplit(dr *core.Driver, b *timedBank, seed uint64) (*core.Result, error) {
	var res *core.Result
	var counters []bankCounters
	s, chosen, err := cleanest(func(int) (sample, error) {
		var s sample
		var m meter
		before := b.bankCounters
		dr.Reseed(seed)
		m.start()
		r, err := dr.Run()
		m.stop(&s)
		res = r
		counters = append(counters, b.bankCounters.sub(before))
		return s, err
	})
	if err != nil {
		return nil, err
	}
	ld.addSplit(s.wall, counters[chosen])
	return res, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// values returns the per-layer metrics the samples determine; the go.*
// and trace.* metrics come from the trial samples themselves.
func (ld *layerData) values() map[string]float64 {
	rtt := summarize(ld.rtts)
	return map[string]float64{
		"core.round1_ms":                ms(median(ld.round1)),
		"core.tail_ms":                  ms(median(ld.tail)),
		"core.client_ms_per_run":        ratio(ms(ld.splitWall-ld.split.decide), float64(ld.splitRuns)),
		"core.decide_ms_per_run":        ratio(ms(ld.split.decide), float64(ld.splitRuns)),
		"core.decide_ns_per_touched":    ratio(float64(ld.split.decide), float64(ld.split.touched)),
		"core.touched_per_round":        ratio(float64(ld.split.touched), float64(ld.split.rounds)),
		"core.accept_ratio":             ratio(float64(ld.accepted), float64(ld.sent)),
		"rng.intn_ns":                   ld.intnNs,
		"gen.neighbor_at_ns":            ld.neighborAtNs,
		"gen.row_ns_per_edge":           ld.rowNsPerEdge,
		"engine.route_fold_ns_per_ball": ld.routeFoldNs,
		"churn.mutate_ms_per_epoch":     ms(median(ld.mutate)),
		"churn.run_ms_per_epoch":        ms(median(ld.epochRun)),
		"churn.pq_epoch_frac":           ratio(float64(ld.pqEpochs), float64(ld.epochs)),
		"churn.reinjected_per_epoch":    ratio(float64(ld.reinjected), float64(ld.epochs)),
		"wire.rtt_us_p50":               us(rtt.P50),
		"wire.rtt_us_p99":               us(rtt.P99),
		"wire.server_decide_frac":       ratio(float64(ld.decideNanos), float64(ld.rttSum)),
		"wire.transport_us_per_round":   ratio(us(ld.rttSum)-float64(ld.decideNanos)/1e3, float64(ld.rttRounds)),
		"wire.bytes_per_ball_computed":  ratio(float64(ld.wireBytes), float64(ld.wirePlaced)),
	}
}

// roundBatch is one round's batch as the Driver ships it: the touched
// servers ascending and the requests each received.
type roundBatch struct{ touched, counts []int32 }

// bankCounters are a timedBank's running totals.
type bankCounters struct {
	decide          time.Duration // inside DecideRound
	rounds, touched int64
	bytes           int64 // on the wire, by the frame format
}

func (c bankCounters) add(o bankCounters) bankCounters {
	return bankCounters{c.decide + o.decide, c.rounds + o.rounds, c.touched + o.touched, c.bytes + o.bytes}
}

func (c bankCounters) sub(o bankCounters) bankCounters {
	return bankCounters{c.decide - o.decide, c.rounds - o.rounds, c.touched - o.touched, c.bytes - o.bytes}
}

// timedBank is the traced run's ServerBank wrapper. It times every
// DecideRound, counts rounds and touched servers, keeps a copy of round
// 1's batch when capture is set, and, given the shard windows of a wire
// bank, adds up the bytes the wire frame format carries for each call.
type timedBank struct {
	core.ServerBank
	windows [][2]int
	bankCounters

	capture bool
	round   int // rounds since the last Reset
	first   roundBatch
}

// frameHeader is a wire frame's fixed part: the uint32 length prefix,
// the type byte and the uint32 session id.
const frameHeader = 9

func (b *timedBank) Reset(initialLoads []int) error {
	b.round = 0
	for _, w := range b.windows {
		b.bytes += 2*frameHeader + 1 // request flag byte, empty reply
		if initialLoads != nil {
			b.bytes += 4 + 4*int64(w[1]-w[0])
		}
	}
	return b.ServerBank.Reset(initialLoads)
}

func (b *timedBank) DecideRound(touched, counts []int32) (core.RoundDecision, error) {
	t0 := time.Now()
	dec, err := b.ServerBank.DecideRound(touched, counts)
	b.decide += time.Since(t0)
	b.round++
	b.rounds++
	b.touched += int64(len(touched))
	if b.capture && b.round == 1 {
		b.first = roundBatch{slices.Clone(touched), slices.Clone(counts)}
	}
	if err == nil {
		b.bytes += roundBytes(b.windows, touched, dec)
	}
	return dec, err
}

func (b *timedBank) Loads() ([]int32, error) {
	for _, w := range b.windows {
		b.bytes += 2*frameHeader + 4 + 4*int64(w[1]-w[0])
	}
	return b.ServerBank.Loads()
}

// roundBytes is one round's size on the wire: for every shard window
// that received requests, a request frame carrying the touched and count
// arrays and a reply frame carrying the accepted and newly-burned arrays
// and the saturation count (each array a uint32 length plus int32s).
func roundBytes(windows [][2]int, touched []int32, dec core.RoundDecision) int64 {
	var total int64
	for _, w := range windows {
		k := countIn(touched, w)
		if k == 0 {
			continue
		}
		total += frameHeader + 8 + 8*k
		total += frameHeader + 12 + 4*(countIn(dec.Accepted, w)+countIn(dec.NewlyBurned, w))
	}
	return total
}

// countIn returns how many entries of the ascending list xs lie in the
// window [w[0], w[1]).
func countIn(xs []int32, w [2]int) int64 {
	lo := sort.Search(len(xs), func(i int) bool { return int(xs[i]) >= w[0] })
	hi := sort.Search(len(xs), func(i int) bool { return int(xs[i]) >= w[1] })
	return int64(hi - lo)
}

// timedExecutor is the benchmark's churn Executor: one core.Runner over
// the scenario topology, re-bound with PatchTopology and reseeded every
// epoch, the epoch's run taken through cleanest. It records the time
// spent inside RunEpoch (spent), the execution kept, whether the
// topology answered point queries, and the epoch's seed and Result.
type timedExecutor struct {
	topo   *churn.Topology
	cfg    core.Config
	runner *core.Runner

	seed        uint64
	res         *core.Result
	spent, kept sample
	pointQuery  bool
}

func (x *timedExecutor) RunEpoch(seed uint64) (*core.Result, error) {
	var spent meter
	spent.start()
	x.seed = seed
	x.pointQuery = x.topo.CanPointQuery()
	if x.runner == nil {
		r, err := x.cfg.NewRunner(x.topo)
		if err != nil {
			return nil, err
		}
		x.runner = r
	}
	var err error
	x.kept, _, err = cleanest(func(int) (sample, error) {
		var s sample
		var m meter
		m.start()
		if err := x.runner.PatchTopology(); err != nil {
			return s, err
		}
		x.runner.Reseed(seed)
		x.res = x.runner.Run()
		m.stop(&s)
		return s, nil
	})
	spent.stop(&x.spent)
	return x.res, err
}

// Replay sizes: each replay is timed replayRepeats times and the median
// kept; row regeneration is timed on an evenly spread client sample.
const (
	replayRepeats    = 3
	rowSampleClients = 4096
)

// timePerOp runs fn replayRepeats times (prepare, untimed, before each)
// and returns the median time per operation; fn returns its operation
// count.
func timePerOp(prepare func(), fn func() int) float64 {
	var durs []time.Duration
	ops := 0
	for r := 0; r < replayRepeats; r++ {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		ops = fn()
		durs = append(durs, time.Since(t0))
	}
	return ratio(float64(median(durs)), float64(ops))
}

// replayRound1 regenerates round 1 of the run at seed on topo through the
// layers' public calls — Stream.Intn for every ball, NeighborAt (or the
// regenerated row) for its server, Router lanes and FoldShard for the
// batch — timing each kind of call, and checks that the folded batch is
// the one the run's bank received. reqs gives each client's ball count
// (nil: d each). When topo cannot answer point queries (churn under
// failures) the destinations come from rows and NeighborAt is timed on
// base instead.
func replayRound1(ld *layerData, topo bipartite.Topology, base bipartite.PointQueryable, seed uint64, d int, reqs []int, want roundBatch) error {
	n := topo.NumClients()
	pq := bipartite.PointQuerier(topo)
	buf := make([]int32, 0, topo.MaxClientDegree())
	var clients, degs []int32
	for v := 0; v < n; v++ {
		balls := d
		if reqs != nil {
			balls = reqs[v]
		}
		if balls == 0 {
			continue
		}
		// The degree the Driver draws from: O(1) under point queries,
		// the regenerated row's length otherwise.
		var deg int
		if pq != nil {
			deg = pq.ClientDegree(v)
		} else {
			buf = topo.AppendClientNeighbors(v, buf[:0])
			deg = len(buf)
		}
		for k := 0; k < balls; k++ {
			clients = append(clients, int32(v))
			degs = append(degs, int32(deg))
		}
	}

	step := max(1, n/rowSampleClients)
	ld.rowNsPerEdge = timePerOp(nil, func() int {
		edges := 0
		for v := 0; v < n; v += step {
			buf = topo.AppendClientNeighbors(v, buf[:0])
			edges += len(buf)
		}
		return edges
	})

	streams := make([]rng.Stream, n)
	idx := make([]int32, len(clients))
	ld.intnNs = timePerOp(func() { rng.ReseedStreamSlice(streams, seed) }, func() int {
		for j, v := range clients {
			idx[j] = int32(streams[v].Intn(int(degs[j])))
		}
		return len(idx)
	})

	dst := make([]int32, len(clients))
	if pq == nil {
		for j := 0; j < len(clients); {
			v := clients[j]
			buf = topo.AppendClientNeighbors(int(v), buf[:0])
			for ; j < len(clients) && clients[j] == v; j++ {
				dst[j] = buf[idx[j]]
			}
		}
		pq = base
	}
	if pq != nil {
		out := dst
		if pq != topo {
			out = make([]int32, len(clients)) // base answers are timed, not used
		}
		ld.neighborAtNs = timePerOp(nil, func() int {
			for j, v := range clients {
				out[j] = pq.NeighborAt(int(v), int(idx[j]))
			}
			return len(out)
		})
	}

	var got roundBatch
	ld.routeFoldNs, got = routeFold(dst, topo.NumServers())
	if !slices.Equal(got.touched, want.touched) || !slices.Equal(got.counts, want.counts) {
		return errors.New("replayed round-1 batch differs from the one the bank received")
	}
	return nil
}

// routeFold replays one round's destinations through the engine's route
// and fold step — two workers' lanes filled by Router.Lanes, then every
// shard folded by FoldShard into a stamped Tally — on one goroutine, and
// returns the median ns per ball with the batch the fold produced.
func routeFold(dst []int32, m int) (float64, roundBatch) {
	pool := engine.NewPool(benchWorkers)
	rt := engine.NewRouter(benchWorkers, benchWorkers, m)
	tally := engine.NewTally(pool, m)
	tally.BeginStamped()
	half := len(dst) / 2
	parts := [][]int32{dst[:half], dst[half:]}
	folded := make([][]int32, rt.Shards())
	ns := timePerOp(func() {
		rt.ResetLanes()
		tally.StampedReset()
	}, func() int {
		shift := rt.Shift()
		for w, part := range parts {
			lanes := rt.Lanes(w)
			for _, u := range part {
				s := int(u) >> shift
				lanes[s] = append(lanes[s], u)
			}
		}
		for s := range folded {
			folded[s] = rt.FoldShard(s, tally)
		}
		return len(dst)
	})
	var b roundBatch
	merged := tally.Merged()
	for _, t := range folded {
		slices.Sort(t)
		for _, u := range t {
			b.touched = append(b.touched, u)
			b.counts = append(b.counts, merged[u])
		}
	}
	return ns, b
}
