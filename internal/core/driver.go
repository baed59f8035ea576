package core

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/bipartite"
	"repro/internal/telemetry"
)

// Driver is the transport-agnostic front end of the protocol: the shared
// client loop — identical per-client draws, frontier, starvation rule and
// result assembly as the Runner — over a ServerBank. A Driver counts a
// round only when it can ship it densely, to a bank with the
// counted-round method (CountedBank), as shipsDense says: each shard
// owner folds its window of the workers' byte tallies into one byte per
// server plus ascending wrap entries (engine.ByteTally.Fold), and the
// bank answers with an accept bitmap. Every other round is routed, and
// its (server, count) pairs, read off each shard's fold, are shipped as
// one ascending batch. With a LocalBank the whole protocol runs in this
// process; with a wire bank the servers live in remote shard processes
// and the Driver becomes the load generator. Either way the outcome is
// bit-for-bit the Runner's for the same (topology, config, seed) — the
// equivalence suite pins that, and the wire smoke job asserts it end to
// end over real sockets.
//
// The batch is independent of the worker count and the steal schedule:
// each shard's fold lists its touched servers in ascending order, read
// off the tally's occupancy bitmap, and the shard-order concatenation of
// those window-local lists is the globally ascending batch — no sort
// anywhere — so the bank sees exactly the same bytes either way; only
// the wall-clock changes.
type Driver struct {
	clientLoop
	bank ServerBank
	// dense is bank's counted-round method, nil when it has none.
	dense CountedBank

	touched   []int32
	countsArg []int32
	// folds holds each shard's touched servers of the round, ascending.
	folds [][]int32

	// The dense exchange's buffers, allocated by the first round shipped
	// densely: folded holds one byte per server, shardWraps each shard's
	// wrap entries and wraps the joined entries. touchedBits has bit u
	// set when server u received requests this round.
	folded      []uint8
	touchedBits []uint64
	shardWraps  [][]int32
	wraps       []int32

	// initialSum is Σ max(initial load, 0) over the servers of the
	// current run: the final loads must sum to it plus the run's accepted
	// balls.
	initialSum int64
}

// NewDriver validates the configuration against topo (the same checks
// as Config.NewRunner) and allocates the client-side run state. The bank
// is not touched until Run, which Resets it first — so a freshly dialed
// wire bank can be handed over as-is.
func NewDriver(topo bipartite.Topology, cfg Config, bank ServerBank) (*Driver, error) {
	if bank == nil {
		return nil, fmt.Errorf("core: driver needs a server bank")
	}
	dr := &Driver{bank: bank}
	dr.dense, _ = bank.(CountedBank)
	dr.viaBank, dr.denseBank = true, dr.dense != nil
	if err := dr.init(topo, cfg); err != nil {
		return nil, err
	}
	dr.folds = make([][]int32, dr.router.Shards())
	return dr, nil
}

// NewLocalDriver wires a Driver to an in-process LocalBank of `shards`
// server shards — the single-process way to run the bank/driver split
// (and the reference the wire transport is cross-checked against).
func NewLocalDriver(topo bipartite.Topology, cfg Config, shards int) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bank, err := NewLocalBank(cfg.Variant, int32(cfg.Params().Capacity()), topo.NumServers(), shards)
	if err != nil {
		return nil, err
	}
	return NewDriver(topo, cfg, bank)
}

// SetObserver installs the per-round callback (nil to remove).
func (dr *Driver) SetObserver(obs RoundObserver) { dr.observer = obs }

// Run executes the protocol against the bank until completion or the
// round cap and returns the Result. Every Run Resets the bank and starts
// from freshly reset client state at the current seed, so a wire server
// process that was killed and restarted between runs is
// indistinguishable from one that stayed up.
func (dr *Driver) Run() (*Result, error) { return dr.run(dr) }

func (dr *Driver) reset(initialLoads []int) error {
	clear(dr.burned)
	dr.initialSum = 0
	for u, l := range initialLoads {
		dr.burned[u] = l >= int(dr.capacity)
		dr.initialSum += int64(max(l, 0))
	}
	return dr.bank.Reset(initialLoads)
}

func (dr *Driver) loads() ([]int32, error) { return dr.bank.Loads() }

// checkLoads is the per-run check of the bank's final loads: no load is
// negative, and the loads sum to the initial loads (clamped at 0) plus
// the balls the run saw accepted. A bank that lost or double-applied a
// decision, or reports a negative load, fails it; the load scan already
// computed the sum and the minimum, so only a failing run scans again,
// for its first negative server.
func (dr *Driver) checkLoads(loads []int32, loadSum int64, res *Result) error {
	if res.MinLoad < 0 {
		u := slices.IndexFunc(loads, func(ld int32) bool { return ld < 0 })
		return fmt.Errorf("core: bank loads: server %d has negative load %d", u, loads[u])
	}
	accepted := res.TotalBalls - int64(res.UnassignedBalls)
	if want := dr.initialSum + accepted; loadSum != want {
		return fmt.Errorf("core: bank loads: loads sum to %d, want %d (initial %d + accepted %d)",
			loadSum, want, dr.initialSum, accepted)
	}
	return nil
}

// shipsDense reports whether a Driver can ship a round densely, by its
// bank's counted-round method: the bank has the method, and the dense
// form's m bytes are no more than the 8·balls bytes the round's
// (server, count) pairs can take. It vetoes counting (countsRound), so
// a Driver counts only the rounds it ships densely. A multi-worker
// counted round always passes the size test, since directCount asks
// workers·m ≤ 4·balls there; it routes a one-worker run's sparse tail
// rounds. Like directCount it is a pure function of its inputs and
// result-neutral; TestShipsDenseRule pins it.
func shipsDense(method bool, balls int64, m int) bool {
	return method && int64(m) <= 8*balls
}

// decide ships the round to the bank and applies the checked decision
// to the accept set and the burned mirror: a counted round densely
// (decideDense), a routed one as pairs. For pairs each shard owner
// folds its shard, and the shards' touched lists are concatenated in
// shard order — contiguous ascending windows, so the result is the
// globally ascending batch — with each server's count read off the
// stamped tally.
func (dr *Driver) decide() (newlyBurned, saturated int, err error) {
	if dr.counted {
		return dr.decideDense()
	}
	sp := telemetry.StartSpan(dr.tel.foldHist())
	dr.pool.StealRangeGrain(len(dr.folds), 1, func(_, _, lo, hi int) {
		for s := lo; s < hi; s++ {
			dr.folds[s] = dr.foldShard(s)
		}
	})
	merged := dr.tally.Merged()
	dr.touched = dr.touched[:0]
	dr.countsArg = dr.countsArg[:0]
	for _, touched := range dr.folds {
		dr.touched = append(dr.touched, touched...)
		for _, u := range touched {
			dr.countsArg = append(dr.countsArg, merged[u])
		}
	}
	sp.End()
	sp = telemetry.StartSpan(dr.tel.decideHist())
	dec, err := dr.bank.DecideRound(dr.touched, dr.countsArg)
	sp.End()
	if err != nil {
		return 0, 0, err
	}
	if err := dr.apply(dec); err != nil {
		return 0, 0, err
	}
	return len(dec.NewlyBurned), dec.Saturated, nil
}

// decideDense folds the workers' byte tallies into the one-worker form,
// each shard owner its own window (router shards are whole 64-server
// words, so owners fold concurrently), joins the shards' wrap entries
// in shard order, which keeps them ascending, and hands the round to
// the bank's counted-round method. Under TrackNeighborhoods each owner
// also records its window's counts in received.
func (dr *Driver) decideDense() (newlyBurned, saturated int, err error) {
	sp := telemetry.StartSpan(dr.tel.foldHist())
	if dr.folded == nil {
		dr.folded = make([]uint8, len(dr.burned))
		dr.touchedBits = make([]uint64, len(dr.accepted))
		dr.shardWraps = make([][]int32, dr.router.Shards())
	}
	// The closure captures dr alone, as the pair path's does, so a round
	// allocates the same either way.
	dr.pool.StealRangeGrain(len(dr.shardWraps), 1, func(_, _, lo, hi int) {
		shift := dr.router.Shift()
		for s := lo; s < hi; s++ {
			from, to := s<<shift, min((s+1)<<shift, len(dr.folded))
			dr.shardWraps[s] = dr.bytes.Fold(from, to, dr.folded, dr.shardWraps[s][:0], dr.touchedBits)
			if dr.received != nil {
				for u := from; u < to; u++ {
					dr.received[u] = int32(dr.folded[u])
				}
				for _, u := range dr.shardWraps[s] {
					dr.received[u] += 256
				}
			}
		}
	})
	dr.wraps = dr.wraps[:0]
	for _, w := range dr.shardWraps {
		dr.wraps = append(dr.wraps, w...)
	}
	sp.End()
	sp = telemetry.StartSpan(dr.tel.decideHist())
	dec, err := dr.dense.DecideCounted(dr.folded, dr.wraps)
	sp.End()
	if err != nil {
		return 0, 0, err
	}
	if err := dr.applyCounted(dec); err != nil {
		return 0, 0, err
	}
	return len(dec.NewlyBurned), dec.Saturated, nil
}

// applyCounted checks a bank's answer to a dense round before it
// applies any of it: the accept bitmap has one bit per server, and sets
// bits only on servers that received requests (touchedBits, so none
// past the last server); NewlyBurned is strictly ascending and names
// only such servers; and Saturated lies in [0, touched], touched being
// the number of those servers. Then it copies the bitmap into the
// accept set, which beginRound cleared, and marks the newly burned
// servers.
func (dr *Driver) applyCounted(dec CountedDecision) error {
	if len(dec.Accepted) != len(dr.accepted) {
		return fmt.Errorf("bank decision: accept bitmap of %d words for %d servers", len(dec.Accepted), len(dr.burned))
	}
	touched := 0
	for i, w := range dec.Accepted {
		if stray := w &^ dr.touchedBits[i]; stray != 0 {
			return fmt.Errorf("bank decision: accepted server %d received no requests or lies outside the bank", 64*i+bits.TrailingZeros64(stray))
		}
		touched += bits.OnesCount64(dr.touchedBits[i])
	}
	if dec.Saturated < 0 || dec.Saturated > touched {
		return fmt.Errorf("bank decision: %d saturated servers in a round that reached %d", dec.Saturated, touched)
	}
	prev := int32(-1)
	for k, u := range dec.NewlyBurned {
		if u <= prev || int(u) >= len(dr.burned) || dr.touchedBits[u>>6]>>(u&63)&1 == 0 {
			return fmt.Errorf("bank decision: newly burned server %d (entry %d) is not a strictly ascending server that received requests", u, k)
		}
		prev = u
	}
	copy(dr.accepted, dec.Accepted)
	for _, u := range dec.NewlyBurned {
		dr.burned[u] = true
	}
	return nil
}

// apply checks a bank's decision against the batch it answers and
// applies it: Accepted and NewlyBurned must be strictly ascending
// subsets of the shipped batch, and Saturated must lie in
// [0, len(batch)]. One merge-walk over the batch checks both lists and
// marks the servers it matches, so a malformed decision — an id out of
// range, duplicated, unsorted or never shipped — is an error before it
// can index per-server state.
func (dr *Driver) apply(dec RoundDecision) error {
	if dec.Saturated < 0 || dec.Saturated > len(dr.touched) {
		return fmt.Errorf("bank decision: %d saturated servers in a batch of %d", dec.Saturated, len(dr.touched))
	}
	acc, nb := dec.Accepted, dec.NewlyBurned
	i, j := 0, 0
	for _, u := range dr.touched {
		if i < len(acc) && acc[i] <= u {
			if acc[i] < u {
				return notInBatch("accepted", acc, i)
			}
			dr.accepted[u>>6] |= 1 << (u & 63)
			i++
		}
		if j < len(nb) && nb[j] <= u {
			if nb[j] < u {
				return notInBatch("newly burned", nb, j)
			}
			dr.burned[u] = true
			j++
		}
	}
	if i < len(acc) {
		return notInBatch("accepted", acc, i)
	}
	if j < len(nb) {
		return notInBatch("newly burned", nb, j)
	}
	return nil
}

// notInBatch reports entry k of a decision list, which the merge-walk
// could not match against the batch: out of range, duplicated, out of
// order or never shipped.
func notInBatch(kind string, list []int32, k int) error {
	return fmt.Errorf("bank decision: %s server %d (entry %d) is not a strictly ascending member of the round batch", kind, list[k], k)
}
