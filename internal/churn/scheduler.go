package churn

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Policy selects what happens to the load a failing server carried.
type Policy int

const (
	// PolicyDrop discards the failed server's accepted balls: the
	// sessions they belonged to are simply gone (crash-stop semantics).
	PolicyDrop Policy = iota
	// PolicyReinject turns the failed server's accepted balls into fresh
	// demand: the affected requests are re-issued by present clients
	// with spare request capacity in the following epochs.
	PolicyReinject
	// PolicySaturate pushes the failed server's accepted balls onto the
	// surviving servers' carried load (a takeover/replication model) —
	// which can drive survivors to the capacity threshold and burn them.
	PolicySaturate
)

// String returns the policy's CLI spelling.
func (p Policy) String() string {
	switch p {
	case PolicyDrop:
		return "drop"
	case PolicyReinject:
		return "reinject"
	case PolicySaturate:
		return "saturate"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ParsePolicy parses a failure policy's CLI spelling.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "drop":
		return PolicyDrop, nil
	case "reinject":
		return PolicyReinject, nil
	case "saturate":
		return PolicySaturate, nil
	default:
		return 0, fmt.Errorf("churn: unknown failure policy %q (want drop, reinject or saturate)", s)
	}
}

// SchedulerConfig fixes the protocol and process parameters of a
// scenario.
type SchedulerConfig struct {
	// Protocol is the per-epoch run configuration: the variant, D, C and
	// every performance knob, on the single validated core.Config
	// surface. The zero value of each knob selects the core default. The
	// scheduler owns the per-epoch pieces — Seed (drawn per epoch),
	// InitialLoads/RequestCounts (aliased to the carried scenario state),
	// TrackLoads and TrackRounds — and overwrites them; set protocol
	// identity and performance knobs only.
	Protocol core.Config
	// LoadExpiry is the fraction of every live server's carried load
	// that expires at the start of each epoch (sessions ending): the
	// knob that lets the scenario settle into a metastable regime
	// instead of filling up.
	LoadExpiry float64
	// Policy selects the failed-load redistribution.
	Policy Policy
	// TrackRounds records the protocol's per-round series into each
	// EpochOutcome (for the -json round records). It does not change
	// any outcome.
	TrackRounds bool
	// Telemetry, when non-nil, receives the scenario-level counters
	// (saer_churn_* series: epochs, churn mutations, failed-load policy
	// actions). The per-epoch protocol runs are instrumented separately
	// through Protocol.Telemetry. Pure observation: scenario outcomes
	// are bit-for-bit identical with or without it.
	Telemetry *telemetry.Registry
	// NewExecutor overrides how an epoch's protocol run executes: the
	// scheduler calls it once with the scenario topology and the fully
	// assembled per-epoch run configuration (InitialLoads/RequestCounts
	// aliased to the scheduler's carried state, TrackLoads on) and drives
	// the returned Executor every epoch. Nil selects the in-process
	// executor (one reused core.Runner driven via PatchTopology +
	// Reseed). The wire service mode plugs in an executor that drives
	// remote server shards; because servers are rebuilt from InitialLoads
	// at every epoch, any executor that computes the same random process
	// — local runner, netsim, wire client — yields bit-for-bit identical
	// scenarios.
	NewExecutor func(topo *Topology, cfg core.Config) (Executor, error)
}

// Executor runs one epoch's protocol execution. The scheduler hands it
// the epoch's seed; the carried loads and per-client request counts are
// the slices the executor was constructed around (aliased, mutated in
// place by the scheduler between epochs). The returned Result must carry
// TrackLoads (the scheduler folds res.Loads back into its carried
// state) and, when requested, the per-round series.
type Executor interface {
	RunEpoch(seed uint64) (*core.Result, error)
}

// localExecutor is the default in-process Executor: one reused
// core.Runner over the scenario topology, re-validated and re-bound
// after each epoch's mutations via PatchTopology.
type localExecutor struct {
	topo   *Topology
	cfg    core.Config
	runner *core.Runner
}

func (x *localExecutor) RunEpoch(seed uint64) (*core.Result, error) {
	if x.runner == nil {
		cfg := x.cfg
		cfg.Seed = seed
		r, err := cfg.NewRunner(x.topo)
		if err != nil {
			return nil, err
		}
		x.runner = r
	} else {
		if err := x.runner.PatchTopology(); err != nil {
			return nil, err
		}
		x.runner.Reseed(seed)
	}
	return x.runner.Run(), nil
}

// EpochEvent describes what happens in one epoch of the scenario. The
// experiment (or CLI) owns the generative processes — Poisson arrival
// sampling, wave schedules, churn-fraction draws — and hands the
// scheduler explicit event lists, which keeps every process imaginable
// expressible without scheduler changes.
type EpochEvent struct {
	// Dt is the continuous time this epoch advances the scenario clock
	// by (epochs are the discrete steps of a continuous-time process;
	// rates are per unit time).
	Dt float64
	// Arrive lists clients starting a session: they become present, get
	// a fresh neighborhood, and carry D balls of demand.
	Arrive []int32
	// Depart lists clients ending their session.
	Depart []int32
	// Rewire lists present clients whose admissible edges churn this
	// epoch (without a session change).
	Rewire []int32
	// Fail and Recover list servers crashing and restarting (cold, with
	// zero load) this epoch.
	Fail    []int32
	Recover []int32
	// Demand lists present clients placing D fresh balls this epoch in
	// addition to the arrivals; RedemandAll is the shorthand for "every
	// present client" (the batch framing of E12/E15).
	Demand      []int32
	RedemandAll bool
}

// EpochOutcome records one epoch of the scenario.
type EpochOutcome struct {
	Epoch int
	// Time is the scenario clock after the epoch's Dt was applied.
	Time float64
	// Population and churn counters.
	Arrived        int
	Departed       int
	Rewired        int
	PresentClients int
	FailedServers  int
	LiveServers    int
	// DemandBalls is the number of balls injected this epoch (arrivals
	// and demand clients × D, plus re-injected balls); ReinjectedBalls
	// is the re-injected share of it.
	DemandBalls     int
	ReinjectedBalls int
	// BurnedAtStart counts live servers whose carried load already
	// reached the capacity when the epoch's run started.
	BurnedAtStart int
	// Protocol outcome of the epoch's run.
	Rounds          int
	Completed       bool
	MaxLoad         int
	MeanLoad        float64
	UnassignedBalls int
	// PerRound is the protocol's per-round series (nil unless
	// SchedulerConfig.TrackRounds).
	PerRound []core.RoundStats
}

// Scheduler drives a continuous-time epoch loop over one churn Topology
// and one reused core.Runner: per epoch it expires carried load, applies
// the event's churn to the topology (O(changed) mutations), assembles
// the demand, and runs the protocol via PatchTopology + Reseed. The
// whole scenario is deterministic in (topology seed, scheduler seed,
// event sequence) and bit-for-bit independent of the worker count, shard
// count and topology backend.
type Scheduler struct {
	topo *Topology
	cfg  SchedulerConfig
	exec Executor
	d    int
	// loads and reqs are aliased into the executor's configuration
	// (InitialLoads/RequestCounts), so each epoch's run picks up the
	// carried loads and demand in place.
	loads []int
	reqs  []int
	// seq draws the per-epoch protocol seeds and the deterministic
	// redistribution offsets.
	seq      *rng.Source
	epoch    int
	now      float64
	pending  int // balls awaiting re-injection (PolicyReinject)
	capacity int
	presBuf  []int32
	tel      *schedTel
}

// NewScheduler returns a Scheduler for topo. The seed determines the
// per-epoch protocol seeds (the topology carries its own seed).
func NewScheduler(topo *Topology, cfg SchedulerConfig, seed uint64) (*Scheduler, error) {
	if err := cfg.Protocol.Validate(); err != nil {
		return nil, err
	}
	if cfg.LoadExpiry < 0 || cfg.LoadExpiry > 1 {
		return nil, fmt.Errorf("churn: LoadExpiry must be in [0,1], got %v", cfg.LoadExpiry)
	}
	s := &Scheduler{
		topo:     topo,
		cfg:      cfg,
		d:        cfg.Protocol.D,
		loads:    make([]int, topo.NumServers()),
		reqs:     make([]int, topo.NumClients()),
		seq:      rng.New(seed ^ 0xc5ee71a52d9c0d4b),
		capacity: cfg.Protocol.Params().Capacity(),
		tel:      newSchedTel(cfg.Telemetry, cfg.Policy),
	}
	proto := cfg.Protocol
	proto.InitialLoads = s.loads
	proto.RequestCounts = s.reqs
	proto.TrackLoads = true
	proto.TrackRounds = cfg.TrackRounds
	if cfg.NewExecutor != nil {
		exec, err := cfg.NewExecutor(topo, proto)
		if err != nil {
			return nil, err
		}
		s.exec = exec
	} else {
		s.exec = &localExecutor{topo: topo, cfg: proto}
	}
	return s, nil
}

// Epoch returns the number of epochs stepped so far.
func (s *Scheduler) Epoch() int { return s.epoch }

// Now returns the scenario clock.
func (s *Scheduler) Now() float64 { return s.now }

// PendingReinjections returns the balls still awaiting re-injection.
func (s *Scheduler) PendingReinjections() int { return s.pending }

// Loads returns the carried per-server loads (aliasing; read-only).
func (s *Scheduler) Loads() []int { return s.loads }

// Step executes one epoch: expiry → failures/recoveries → population
// and edge churn → demand assembly → protocol run on the patched
// topology.
func (s *Scheduler) Step(e EpochEvent) (*EpochOutcome, error) {
	s.epoch++
	s.now += e.Dt
	epoch := s.epoch

	// 1. A fraction of every live server's carried load expires.
	if s.cfg.LoadExpiry > 0 {
		for u := range s.loads {
			if s.loads[u] > 0 && !s.topo.FailedServer(u) {
				s.loads[u] -= int(float64(s.loads[u]) * s.cfg.LoadExpiry)
			}
		}
	}

	// 2. Failures release the crashed servers' carried load per policy.
	released := 0
	if len(e.Fail) > 0 {
		for _, u := range e.Fail {
			if !s.topo.FailedServer(int(u)) {
				released += s.loads[u]
				s.loads[u] = 0
			}
		}
		if err := s.topo.FailServers(e.Fail); err != nil {
			return nil, err
		}
		switch s.cfg.Policy {
		case PolicyReinject:
			s.pending += released
		case PolicySaturate:
			// Spread the released balls round-robin over the survivors,
			// starting at a deterministic offset so no server is
			// systematically preferred across waves.
			live := s.topo.LiveServers()
			if released > 0 && len(live) > 0 {
				off := s.seq.Intn(len(live))
				for i := 0; i < released; i++ {
					s.loads[live[(off+i)%len(live)]]++
				}
			}
		}
	}

	// 3. Recoveries: servers restart cold (zero load, unburned).
	if len(e.Recover) > 0 {
		s.topo.RecoverServers(e.Recover)
		for _, u := range e.Recover {
			s.loads[u] = 0
		}
	}

	// 4. Population changes and edge churn.
	s.topo.Depart(e.Depart)
	s.topo.Arrive(epoch, e.Arrive)
	s.topo.Rewire(epoch, e.Rewire)

	// 5. Demand assembly: arrivals and demand clients place D balls
	// each; re-injected balls fill present clients' spare capacity.
	clear(s.reqs)
	demand := 0
	if e.RedemandAll {
		for v := range s.reqs {
			if s.topo.Present(v) {
				s.reqs[v] = s.d
				demand += s.d
			}
		}
	} else {
		for _, v := range e.Arrive {
			if s.reqs[v] == 0 {
				s.reqs[v] = s.d
				demand += s.d
			}
		}
		for _, v := range e.Demand {
			if s.reqs[v] == 0 && s.topo.Present(int(v)) {
				s.reqs[v] = s.d
				demand += s.d
			}
		}
	}
	reinjected := s.distributePending()
	demand += reinjected
	s.tel.countEpoch(&e, released, reinjected)

	burnedAtStart := 0
	for u, l := range s.loads {
		if l >= s.capacity && !s.topo.FailedServer(u) {
			burnedAtStart++
		}
	}

	// 6. Protocol run on the mutated topology, through the executor.
	res, err := s.exec.RunEpoch(s.seq.Uint64())
	if err != nil {
		return nil, err
	}
	copy(s.loads, res.Loads)

	out := &EpochOutcome{
		Epoch:           epoch,
		Time:            s.now,
		Arrived:         len(e.Arrive),
		Departed:        len(e.Depart),
		Rewired:         len(e.Rewire) + len(e.Arrive),
		PresentClients:  s.topo.NumPresent(),
		FailedServers:   s.topo.NumFailed(),
		LiveServers:     len(s.topo.LiveServers()),
		DemandBalls:     demand,
		ReinjectedBalls: reinjected,
		BurnedAtStart:   burnedAtStart,
		Rounds:          res.Rounds,
		Completed:       res.Completed,
		MaxLoad:         res.MaxLoad,
		MeanLoad:        res.MeanLoad,
		UnassignedBalls: res.UnassignedBalls,
	}
	if s.cfg.TrackRounds {
		out.PerRound = append([]core.RoundStats(nil), res.PerRound...)
	}
	return out, nil
}

// distributePending re-issues pending balls through present clients'
// spare request capacity (a client can carry at most D balls per epoch —
// the protocol's contract), round-robin from a deterministic offset.
// Whatever does not fit stays pending for the next epoch.
func (s *Scheduler) distributePending() int {
	if s.pending == 0 {
		return 0
	}
	s.presBuf = s.topo.AppendPresentClients(s.presBuf[:0])
	if len(s.presBuf) == 0 {
		return 0
	}
	off := s.seq.Intn(len(s.presBuf))
	given := 0
	for i := 0; i < len(s.presBuf) && s.pending > 0; i++ {
		v := s.presBuf[(off+i)%len(s.presBuf)]
		free := s.d - s.reqs[v]
		if free <= 0 {
			continue
		}
		if free > s.pending {
			free = s.pending
		}
		s.reqs[v] += free
		s.pending -= free
		given += free
	}
	return given
}

// SamplePresent draws k distinct present clients uniformly from src
// (deterministic helper for scenario processes: churn subsets, demand
// subsets, departure picks). k is clamped to the present count.
func (t *Topology) SamplePresent(src *rng.Source, k int) []int32 {
	return samplePool(src, t.AppendPresentClients(nil), k)
}

// SampleAbsent draws k distinct absent clients (free session slots) from
// src, clamped to the absent count — the arrival helper.
func (t *Topology) SampleAbsent(src *rng.Source, k int) []int32 {
	pool := make([]int32, 0, t.n-t.numPresent)
	for v := 0; v < t.n; v++ {
		if !t.present[v] {
			pool = append(pool, int32(v))
		}
	}
	return samplePool(src, pool, k)
}

// SampleLive draws k distinct live servers from src, clamped to one less
// than the live count (so a failure wave can never fail every server).
func (t *Topology) SampleLive(src *rng.Source, k int) []int32 {
	pool := append([]int32(nil), t.live...)
	if k >= len(pool) {
		k = len(pool) - 1
	}
	return samplePool(src, pool, k)
}

func samplePool(src *rng.Source, pool []int32, k int) []int32 {
	if k > len(pool) {
		k = len(pool)
	}
	if k <= 0 {
		return nil
	}
	out := make([]int32, 0, k)
	for _, i := range src.Sample(len(pool), k) {
		out = append(out, pool[i])
	}
	return out
}
