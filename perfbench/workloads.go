package main

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"time"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/wire"
)

// The protocol every workload runs: d = 2 balls per client, threshold
// constant c = 4, so no server may hold more than ⌊c·d⌋ = 8 balls.
const (
	protoD = 2
	protoC = 4.0
)

// checkResult applies the per-run invariants: the run completed, no
// server holds more than ⌊c·d⌋ balls, and the servers' total load is
// the carried load plus the balls accepted in the run.
func checkResult(res *core.Result, carried int64) error {
	if !res.Completed {
		return fmt.Errorf("run did not complete: %d balls unassigned after %d rounds", res.UnassignedBalls, res.Rounds)
	}
	if !res.RespectsLoadBound() {
		return fmt.Errorf("max load %d exceeds the cap %d", res.MaxLoad, res.LoadBound())
	}
	accepted := res.TotalBalls - int64(res.UnassignedBalls)
	if total := int64(math.Round(res.MeanLoad * float64(res.NumServers))); total != carried+accepted {
		return fmt.Errorf("servers hold %d balls, want %d carried + %d accepted", total, carried, accepted)
	}
	return nil
}

// record copies a run's outcome into the sample.
func (s *sample) record(res *core.Result) {
	s.rounds = res.Rounds
	s.work = res.Work
	s.balls = res.TotalBalls
	s.placed = res.TotalBalls - int64(res.UnassignedBalls)
	s.maxLoad = res.MaxLoad
	for _, r := range res.PerRound {
		s.sent += int64(r.RequestsSent)
		s.accepted += int64(r.RequestsAccepted)
	}
	s.outcome = untracedResult(res)
}

// untracedResult is res without the per-round series only a traced run
// records.
func untracedResult(res *core.Result) core.Result {
	out := *res
	out.PerRound = nil
	return out
}

// ---------------------------------------------------------------------------
// pq-dense: in-process SAER on the implicit Δ-regular topology, where
// every ball's server is one NeighborAt point query.

const (
	pqClients = 1 << 20
	pqDelta   = 400 // log2(n)²
)

type pqDense struct {
	seed   uint64
	ld     *layerData
	topo   *gen.Implicit
	cfg    core.Config
	runner *core.Runner

	last     *core.Result
	lastWall time.Duration

	// Traced layer samples: a round-1-only Runner and a Driver over a
	// timed in-process bank.
	round1 *core.Runner
	split  *core.Driver
	bank   *timedBank
}

func setupPQDense(seed uint64, ld *layerData) (instance, error) {
	topo, err := gen.RegularImplicit(pqClients, pqDelta, topologySeed)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Variant: core.SAER, D: protoD, C: protoC, Workers: benchWorkers, TrackRounds: ld != nil}
	runner, err := cfg.NewRunner(topo)
	if err != nil {
		return nil, err
	}
	runner.Reseed(derive(seed, streamWarmup))
	if err := checkResult(runner.Run(), 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return &pqDense{seed: seed, ld: ld, topo: topo, cfg: cfg, runner: runner}, nil
}

func (w *pqDense) trial(i int) (sample, error) {
	seed := trialSeed(w.seed, i)
	var res *core.Result
	s, _, _ := cleanest(func(int) (sample, error) {
		var s sample
		var m meter
		m.start()
		w.runner.Reseed(seed)
		res = w.runner.Run()
		m.stop(&s)
		return s, nil
	})
	w.last, w.lastWall = res, s.wall
	s.record(res)
	return s, checkResult(res, 0)
}

// timeRound1 is the kept execution time of r, a Runner configured to stop
// after round 1, at seed; prepare runs inside each timed execution.
func timeRound1(r *core.Runner, seed uint64, prepare func() error) (time.Duration, error) {
	s, _, err := cleanest(func(int) (sample, error) {
		var s sample
		var m meter
		m.start()
		if prepare != nil {
			if err := prepare(); err != nil {
				return s, err
			}
		}
		r.Reseed(seed)
		r.Run()
		m.stop(&s)
		return s, nil
	})
	return s.wall, err
}

func (w *pqDense) layers(i int) error {
	if w.round1 == nil {
		cfg := w.cfg
		cfg.MaxRounds, cfg.TrackRounds = 1, false
		r, err := cfg.NewRunner(w.topo)
		if err != nil {
			return err
		}
		bank, err := core.NewLocalBank(cfg.Variant, int32(cfg.Params().Capacity()), w.topo.NumServers(), benchWorkers)
		if err != nil {
			return err
		}
		w.bank = &timedBank{ServerBank: bank}
		if w.split, err = core.NewDriver(w.topo, w.cfg, w.bank); err != nil {
			return err
		}
		w.round1 = r
	}
	seed := trialSeed(w.seed, i)
	r1, err := timeRound1(w.round1, seed, nil)
	if err != nil {
		return err
	}
	w.ld.addRound1(r1, w.lastWall)

	w.bank.capture = i == 0
	res, err := w.ld.runSplit(w.split, w.bank, seed)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(res, w.last) {
		return errors.New("Driver result differs from the Runner's at the same seed")
	}
	if i == 0 {
		return replayRound1(w.ld, w.topo, nil, seed, protoD, nil, w.bank.first)
	}
	return nil
}

func (w *pqDense) close() error { return nil }

// ---------------------------------------------------------------------------
// churn-rows: a churn.Scheduler running RAES on a trust-subset base, with
// failures always active, so every epoch regenerates rows.

const (
	churnClients = 1 << 16
	churnDelta   = 256 // log2(n)²
	loadExpiry   = 0.5
	rewireDiv    = 10 // rewire 1/10 of the present clients per epoch
	failDiv      = 50 // fail 1/50 of the servers per epoch
)

type churnRows struct {
	seed   uint64
	ld     *layerData
	base   *gen.Implicit
	topo   *churn.Topology
	sched  *churn.Scheduler
	exec   *timedExecutor
	events *rng.Source

	prevFail []int32
	// initial is the carried load vector the latest epoch's run started
	// from, modelled before the epoch ran.
	initial []int

	round1 *core.Runner
	split  *core.Driver
	bank   *timedBank
}

func setupChurnRows(seed uint64, ld *layerData) (instance, error) {
	base, err := gen.TrustSubsetImplicit(churnClients, churnClients, churnDelta, topologySeed)
	if err != nil {
		return nil, err
	}
	topo, err := churn.New(churn.Config{
		Base:    base,
		Sampler: churn.TrustSampler(churnClients, churnDelta),
		Seed:    churnTopologySeed,
		Backend: churn.BackendImplicit,
	})
	if err != nil {
		return nil, err
	}
	w := &churnRows{
		seed:    seed,
		ld:      ld,
		base:    base,
		topo:    topo,
		events:  rng.New(derive(seed, streamEvents)),
		initial: make([]int, topo.NumServers()),
	}
	w.sched, err = churn.NewScheduler(topo, churn.SchedulerConfig{
		Protocol:    core.Config{Variant: core.RAES, D: protoD, C: protoC, Workers: benchWorkers},
		LoadExpiry:  loadExpiry,
		Policy:      churn.PolicyReinject,
		TrackRounds: ld != nil,
		NewExecutor: func(t *churn.Topology, cfg core.Config) (churn.Executor, error) {
			w.exec = &timedExecutor{topo: t, cfg: cfg}
			return w.exec, nil
		},
	}, derive(seed, streamScheduler))
	if err != nil {
		return nil, err
	}
	if _, _, err := w.step(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// step runs one epoch: rewire a tenth of the clients, fail a fresh
// fiftieth of the live servers and recover the previous epoch's, and
// re-demand every client. Only Scheduler.Step is timed, and the epoch is
// reported as if its protocol run had executed once: the time outside
// RunEpoch plus the execution the executor kept.
func (w *churnRows) step() (sample, *churn.EpochOutcome, error) {
	e := churn.EpochEvent{
		Dt:          1,
		RedemandAll: true,
		Rewire:      w.topo.SamplePresent(w.events, w.topo.NumPresent()/rewireDiv),
		Fail:        w.topo.SampleLive(w.events, w.topo.NumServers()/failDiv),
		Recover:     w.prevFail,
	}
	carried := w.modelInitialLoads(e)
	var s sample
	var m meter
	m.start()
	out, err := w.sched.Step(e)
	m.stop(&s)
	w.prevFail = e.Fail
	if err != nil {
		return s, nil, err
	}
	s.replace(w.exec.spent, w.exec.kept)
	res := w.exec.res
	s.record(res)
	epoch := *out
	epoch.PerRound = nil
	s.outcome = [2]any{epoch, s.outcome}
	if res.TotalBalls != int64(out.DemandBalls) {
		return s, out, fmt.Errorf("run placed %d balls for a demand of %d", res.TotalBalls, out.DemandBalls)
	}
	return s, out, checkResult(res, carried)
}

// modelInitialLoads computes, before epoch e runs, the carried loads its
// protocol run must start from — expiry on the live servers, then the
// failing and recovering servers emptied — and returns their sum.
func (w *churnRows) modelInitialLoads(e churn.EpochEvent) int64 {
	copy(w.initial, w.sched.Loads())
	for u, l := range w.initial {
		if l > 0 && !w.topo.FailedServer(u) {
			w.initial[u] = l - int(float64(l)*loadExpiry)
		}
	}
	for _, u := range e.Fail {
		w.initial[u] = 0
	}
	for _, u := range e.Recover {
		w.initial[u] = 0
	}
	var sum int64
	for _, l := range w.initial {
		sum += int64(l)
	}
	return sum
}

func (w *churnRows) trial(int) (sample, error) {
	s, out, err := w.step()
	if err != nil || w.ld == nil {
		return s, err
	}
	w.ld.epochs++
	w.ld.mutate = append(w.ld.mutate, s.wall-w.exec.kept.wall)
	w.ld.epochRun = append(w.ld.epochRun, w.exec.kept.wall)
	if w.exec.pointQuery {
		w.ld.pqEpochs++
	}
	w.ld.reinjected += int64(out.ReinjectedBalls)
	return s, nil
}

func (w *churnRows) layers(i int) error {
	// The epoch's configuration as the executor ran it, starting from the
	// modelled carried loads (the scheduler's own vector already holds
	// the epoch's end loads).
	cfg := w.exec.cfg
	cfg.InitialLoads = w.initial
	if w.round1 == nil {
		c1 := cfg
		c1.MaxRounds, c1.TrackRounds, c1.Seed = 1, false, w.exec.seed
		r, err := c1.NewRunner(w.topo)
		if err != nil {
			return err
		}
		bank, err := core.NewLocalBank(cfg.Variant, int32(cfg.Params().Capacity()), w.topo.NumServers(), benchWorkers)
		if err != nil {
			return err
		}
		w.bank = &timedBank{ServerBank: bank}
		if w.split, err = core.NewDriver(w.topo, cfg, w.bank); err != nil {
			return err
		}
		w.round1 = r
	}
	seed := w.exec.seed
	r1, err := timeRound1(w.round1, seed, w.round1.PatchTopology)
	if err != nil {
		return err
	}
	w.ld.addRound1(r1, w.exec.kept.wall)

	w.bank.capture = i == 0
	res, err := w.ld.runSplit(w.split, w.bank, seed)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(res, w.exec.res) {
		return errors.New("Driver result differs from the executor's at the same epoch")
	}
	if i == 0 {
		return replayRound1(w.ld, w.topo, w.base, seed, protoD, cfg.RequestCounts, w.bank.first)
	}
	return nil
}

func (w *churnRows) close() error { return nil }

// ---------------------------------------------------------------------------
// wire-loopback: a core.Driver over a wire.Bank to two shard servers in
// the same process, one session, one trial at a time (a closed loop with
// one client).

const (
	wireClients = 1 << 16
	wireDelta   = 256 // log2(n)²
	wireShards  = 2
)

type wireLoopback struct {
	seed    uint64
	ld      *layerData
	topo    *gen.Implicit
	servers *wire.ServerSet
	bank    *wire.Bank
	timed   *timedBank // traced only
	driver  *core.Driver
	// ref is the in-process Runner every wire result is checked against.
	ref *core.Runner

	// round1At is stamped by the round observer when an execution's
	// first round completes.
	round1At time.Time
	reports  []wire.Report // traced: the shard tallies after the warm-up
}

func setupWireLoopback(seed uint64, ld *layerData) (instance, error) {
	topo, err := gen.RegularImplicit(wireClients, wireDelta, topologySeed)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Variant: core.SAER, D: protoD, C: protoC, Workers: benchWorkers, TrackRounds: ld != nil}
	ref, err := cfg.NewRunner(topo)
	if err != nil {
		return nil, err
	}
	servers, err := wire.StartLocalSet(wireShards)
	if err != nil {
		return nil, err
	}
	w := &wireLoopback{seed: seed, ld: ld, topo: topo, servers: servers, ref: ref}
	if err := w.connect(cfg); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// connect dials the shard servers, builds the Driver and runs the
// warm-up trial.
func (w *wireLoopback) connect(cfg core.Config) error {
	bank, err := wire.Dial(w.servers.Addrs(), cfg.Variant, int32(cfg.Params().Capacity()), w.topo.NumServers())
	if err != nil {
		return err
	}
	w.bank = bank
	var sb core.ServerBank = bank
	if w.ld != nil {
		w.timed = &timedBank{ServerBank: bank, windows: bank.Windows()}
		sb = w.timed
	}
	if w.driver, err = core.NewDriver(w.topo, cfg, sb); err != nil {
		return err
	}
	if w.ld != nil {
		w.driver.SetObserver(func(round int, _ int64) {
			if round == 1 {
				w.round1At = time.Now()
			}
		})
	}
	seed := derive(w.seed, streamWarmup)
	_, res, _, err := w.execute(seed)
	if err == nil {
		err = w.verify(seed, res)
	}
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if w.ld != nil {
		*w.timed = timedBank{ServerBank: bank, windows: bank.Windows()}
		if w.reports, err = bank.Reports(); err != nil {
			return err
		}
	}
	return nil
}

// wireExec is what one traced execution adds to the layer samples.
type wireExec struct {
	round1 time.Duration
	rtts   []time.Duration
	bank   bankCounters
}

// execute runs the Driver once at seed over the wire.
func (w *wireLoopback) execute(seed uint64) (sample, *core.Result, wireExec, error) {
	var s sample
	var m meter
	var x wireExec
	var before bankCounters
	if w.timed != nil {
		before = w.timed.bankCounters
	}
	w.driver.Reseed(seed)
	m.start()
	res, err := w.driver.Run()
	m.stop(&s)
	x.rtts, _ = w.bank.TakeMetrics()
	if w.timed != nil {
		x.round1 = w.round1At.Sub(m.t0)
		x.bank = w.timed.bankCounters.sub(before)
	}
	return s, res, x, err
}

// verify checks a wire result against the in-process run at the same
// seed, then the per-run invariants.
func (w *wireLoopback) verify(seed uint64, res *core.Result) error {
	w.ref.Reseed(seed)
	if want := w.ref.Run(); !reflect.DeepEqual(res, want) {
		return errors.New("wire result differs from the in-process run at the same seed")
	}
	return checkResult(res, 0)
}

func (w *wireLoopback) trial(i int) (sample, error) {
	seed := trialSeed(w.seed, i)
	if w.timed != nil {
		w.timed.capture = i == 0
	}
	var res *core.Result
	var execs []wireExec
	s, chosen, err := cleanest(func(int) (sample, error) {
		s, r, x, err := w.execute(seed)
		res = r
		execs = append(execs, x)
		return s, err
	})
	if err == nil {
		err = w.verify(seed, res)
	}
	if err != nil {
		return s, err
	}
	s.record(res)
	if w.ld != nil {
		x := execs[chosen]
		w.ld.addRound1(x.round1, s.wall)
		w.ld.addSplit(s.wall, x.bank)
		w.ld.rtts = append(w.ld.rtts, x.rtts...)
		for _, e := range execs {
			w.ld.rttRounds += len(e.rtts)
			for _, d := range e.rtts {
				w.ld.rttSum += d
			}
		}
		w.ld.wireBytes += x.bank.bytes
		w.ld.wirePlaced += s.placed
	}
	return s, nil
}

func (w *wireLoopback) layers(i int) error {
	if i != 0 {
		return nil
	}
	return replayRound1(w.ld, w.topo, nil, trialSeed(w.seed, 0), protoD, nil, w.timed.first)
}

// close reads the shard servers' decide time for the traced trials,
// then closes the connections and the servers.
func (w *wireLoopback) close() error {
	var first error
	if w.bank != nil {
		if w.reports != nil {
			reports, err := w.bank.Reports()
			if err != nil {
				first = err
			}
			for i := range reports {
				w.ld.decideNanos += reports[i].DecideNanos - w.reports[i].DecideNanos
			}
		}
		w.bank.Close()
	}
	if err := w.servers.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
