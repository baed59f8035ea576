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
// (server, count) pairs are folded shard by shard, sorted window-locally
// and shipped as one ascending batch. With a LocalBank the whole protocol
// runs in this process; with a wire bank the servers live in remote shard
// processes and the Driver becomes the load generator. Either way the
// outcome is bit-for-bit the Runner's for the same (topology, config,
// seed) — the equivalence suite pins that, and the wire smoke job asserts
// it end to end over real sockets.
//
// The batch is independent of the worker count and the steal schedule:
// the per-shard folds produce sorted window-local touched lists whose
// shard-order concatenation is the globally sorted batch, so the bank
// sees exactly the same bytes either way; only the wall-clock changes.
type Driver struct {
	clientLoop
	bank ServerBank

	touched      []int32
	countsArg    []int32
	shardTouched [][]int32 // per-shard sorted touched lists of the current round
}

// NewDriver validates the configuration against topo (the same checks as
// NewRunner) and allocates the client-side run state. The bank is not
// touched until Run, which Resets it first — so a freshly dialed wire
// bank can be handed over as-is.
func NewDriver(topo bipartite.Topology, cfg Config, bank ServerBank) (*Driver, error) {
	if bank == nil {
		return nil, fmt.Errorf("core: driver needs a server bank")
	}
	dr := &Driver{bank: bank}
	if err := dr.init(topo, cfg, true); err != nil {
		return nil, err
	}
	dr.shardTouched = make([][]int32, dr.router.Shards())
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
	for u, l := range initialLoads {
		dr.burned[u] = int32(l) >= dr.capacity
	}
	return dr.bank.Reset(initialLoads)
}

func (dr *Driver) loads() ([]int32, error) { return dr.bank.Loads() }

// decide folds the route lanes shard by shard (each fold owned by one
// goroutine, each shard's touched list sorted window-locally),
// concatenates the per-shard lists in shard order — contiguous ascending
// windows, so the result is the globally sorted batch — ships it to the
// bank, and applies the decision to the accept stamps and the burned
// mirror.
func (dr *Driver) decide() (newlyBurned, saturated int, err error) {
	sp := telemetry.StartSpan(dr.tel.foldHist())
	dr.pool.StealRangeGrain(len(dr.shardTouched), 1, func(_, _, lo, hi int) {
		for s := lo; s < hi; s++ {
			t := dr.router.FoldShard(s, dr.tally)
			slices.Sort(t)
			dr.shardTouched[s] = t
		}
	})
	dr.touched = dr.touched[:0]
	dr.countsArg = dr.countsArg[:0]
	merged := dr.tally.Merged()
	for _, t := range dr.shardTouched {
		for _, u := range t {
			dr.touched = append(dr.touched, u)
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
	for _, u := range dec.Accepted {
		dr.acceptedEpoch[u] = dr.roundEpoch
	}
	for _, u := range dec.NewlyBurned {
		dr.burned[u] = true
	}
	return len(dec.NewlyBurned), dec.Saturated, nil
}
