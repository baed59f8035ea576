package core

import (
	"fmt"
	"slices"

	"repro/internal/bipartite"
	"repro/internal/telemetry"
)

// Driver is the transport-agnostic front end of the protocol: the shared
// client loop — identical per-client draws, frontier, starvation rule and
// result assembly as the Runner — over a ServerBank. Each round's
// (server, count) pairs are scanned (counted rounds) or folded (routed
// rounds) shard by shard and shipped as one ascending batch. With a
// LocalBank the whole protocol runs in this process; with a wire bank
// the servers live in remote shard processes and the Driver becomes the
// load generator. Either way the outcome is bit-for-bit the Runner's for
// the same (topology, config, seed) — the equivalence suite pins that,
// and the wire smoke job asserts it end to end over real sockets.
//
// The batch is independent of the worker count and the steal schedule:
// each shard's scan or fold lists its touched servers in ascending order
// (a scan walks the window in address order, a fold reads the tally's
// occupancy bitmap), and the shard-order concatenation of those
// window-local lists is the globally ascending batch — no sort anywhere
// — so the bank sees exactly the same bytes either way; only the
// wall-clock changes.
type Driver struct {
	clientLoop
	bank ServerBank

	touched      []int32
	countsArg    []int32
	shardTouched [][]int32 // per-shard ascending touched lists of a routed round
	// batches holds a counted round's per-shard ascending lists, in the
	// Driver's own buffers (shardTouched aliases the router's).
	batches []shardBatch

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
	if err := dr.init(topo, cfg, true); err != nil {
		return nil, err
	}
	dr.shardTouched = make([][]int32, dr.router.Shards())
	dr.batches = make([]shardBatch, dr.router.Shards())
	return dr, nil
}

// shardBatch is one shard's slice of a round batch: servers ascending,
// counts parallel.
type shardBatch struct{ servers, counts []int32 }

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

// decide scans the byte tallies (counted round) or folds the route lanes
// (routed round) shard by shard, each shard owned by one goroutine and
// yielding its touched servers in ascending order, concatenates the
// per-shard lists in shard order — contiguous ascending windows, so the
// result is the globally ascending batch — ships it to the bank, and
// applies the checked decision to the accept set and the burned mirror.
func (dr *Driver) decide() (newlyBurned, saturated int, err error) {
	sp := telemetry.StartSpan(dr.tel.foldHist())
	shift, m := dr.router.Shift(), dr.topo.NumServers()
	dr.pool.StealRangeGrain(len(dr.shardTouched), 1, func(w, _, lo, hi int) {
		for s := lo; s < hi; s++ {
			if !dr.counted {
				dr.shardTouched[s] = dr.router.FoldShard(s, dr.tally)
				continue
			}
			b := &dr.batches[s]
			b.servers, b.counts = b.servers[:0], b.counts[:0]
			end := min((s+1)<<shift, m)
			for pos := s << shift; pos < end; {
				var servers, counts []int32
				servers, counts, pos = dr.scan(w, pos, end)
				b.servers = append(b.servers, servers...)
				b.counts = append(b.counts, counts...)
			}
		}
	})
	dr.touched = dr.touched[:0]
	dr.countsArg = dr.countsArg[:0]
	if dr.counted {
		for _, b := range dr.batches {
			dr.touched = append(dr.touched, b.servers...)
			dr.countsArg = append(dr.countsArg, b.counts...)
		}
	} else {
		merged := dr.tally.Merged()
		for _, t := range dr.shardTouched {
			dr.touched = append(dr.touched, t...)
			for _, u := range t {
				dr.countsArg = append(dr.countsArg, merged[u])
			}
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
