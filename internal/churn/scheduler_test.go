package churn

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

// scenarioConfig pins one execution configuration of the shared test
// scenario; the equivalence suite sweeps it.
type scenarioConfig struct {
	backend Backend
	workers int
	shards  int
}

// runTestScenario executes the shared ten-epoch scenario — exercising
// every event type: rewires, failure and recovery waves, departures,
// arrivals, redemand epochs, demand subsets, re-injection — under the
// given execution configuration and returns the outcome series. The
// event construction draws from its own deterministic source and from
// topology state, both of which evolve identically for every
// configuration, so any divergence in the outcomes is a real
// determinism bug.
func runTestScenario(t *testing.T, sc scenarioConfig) []*EpochOutcome {
	t.Helper()
	const n, m, k = 300, 260, 9
	base, err := gen.TrustSubsetImplicit(n, m, k, 0xBA5E)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := New(Config{Base: base, Sampler: TrustSampler(m, k), Seed: 0x5EED, Backend: sc.backend})
	if err != nil {
		t.Fatal(err)
	}
	proto := core.Config{Variant: core.SAER, D: 2, C: 3, Workers: sc.workers, Shards: sc.shards}
	sch, err := NewScheduler(topo, SchedulerConfig{
		Protocol:   proto,
		LoadExpiry: 0.5, Policy: PolicyReinject, TrackRounds: true,
	}, 0x77)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(9)
	var failedWave []int32
	outs := make([]*EpochOutcome, 0, 10)
	for epoch := 1; epoch <= 10; epoch++ {
		ev := EpochEvent{Dt: 0.5}
		switch {
		case epoch%3 == 1:
			ev.RedemandAll = true
		default:
			ev.Demand = topo.SamplePresent(src, n/2)
		}
		ev.Rewire = topo.SamplePresent(src, n/5)
		switch epoch {
		case 2:
			ev.Depart = topo.SamplePresent(src, n/6)
		case 4:
			failedWave = topo.SampleLive(src, m/4)
			ev.Fail = failedWave
		case 6:
			ev.Recover = failedWave
			ev.Arrive = topo.SampleAbsent(src, n/8)
		}
		out, err := sch.Step(ev)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	return outs
}

// TestChurnSchedulerEquivalence is the churn subsystem's determinism
// contract: the shared scenario's outcome series — including per-round
// protocol series — must be bit-for-bit identical across topology
// backends × worker counts × shard counts. The reference is the
// implicit backend on one worker with a one-shard target, which the
// router meets with one 512-server window (m = 260), so every round
// counts; the other configurations count or route each round as
// directCount picks, multi-worker ones under the work-stealing
// scheduler.
func TestChurnSchedulerEquivalence(t *testing.T) {
	ref := runTestScenario(t, scenarioConfig{backend: BackendImplicit, workers: 1, shards: 1})
	for _, o := range ref {
		if o.Rounds == 0 && o.DemandBalls > 0 {
			t.Fatalf("reference scenario epoch %d ran no rounds for %d demand balls", o.Epoch, o.DemandBalls)
		}
	}
	workerCounts := []int{1, 2, 3}
	if p := runtime.GOMAXPROCS(0); p > 3 {
		workerCounts = append(workerCounts, p)
	}
	for _, backend := range backends() {
		for _, workers := range workerCounts {
			for _, shards := range []int{0, 1, 2, 3, 8} {
				got := runTestScenario(t, scenarioConfig{backend: backend, workers: workers, shards: shards})
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("scenario diverges: backend=%v workers=%d shards=%d", backend, workers, shards)
				}
			}
		}
	}
}

// TestSchedulerPolicies pins the three failure policies' load
// accounting on a hand-sized scenario: drop loses the released balls,
// reinject turns them into demand, saturate pushes them onto survivors.
func TestSchedulerPolicies(t *testing.T) {
	const n, m, k = 80, 40, 5
	mk := func(policy Policy) (*Topology, *Scheduler) {
		base, err := gen.TrustSubsetImplicit(n, m, k, 100)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := New(Config{Base: base, Sampler: TrustSampler(m, k), Seed: 1, Backend: BackendImplicit})
		if err != nil {
			t.Fatal(err)
		}
		proto := core.Config{Variant: core.SAER, D: 2, C: 4, Workers: 1}
		sch, err := NewScheduler(topo, SchedulerConfig{Protocol: proto, Policy: policy}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return topo, sch
	}
	for _, policy := range []Policy{PolicyDrop, PolicyReinject, PolicySaturate} {
		topo, sch := mk(policy)
		if _, err := sch.Step(EpochEvent{Dt: 1, RedemandAll: true}); err != nil {
			t.Fatal(err)
		}
		carried := 0
		for _, l := range sch.Loads() {
			carried += l
		}
		if carried != n*2 {
			t.Fatalf("%v: epoch 1 placed %d balls, want %d", policy, carried, n*2)
		}
		wave := topo.SampleLive(rng.New(5), m/2)
		released := 0
		for _, u := range wave {
			released += sch.Loads()[u]
		}
		out, err := sch.Step(EpochEvent{Dt: 1, Fail: wave})
		if err != nil {
			t.Fatal(err)
		}
		switch policy {
		case PolicyDrop:
			if out.ReinjectedBalls != 0 || sch.PendingReinjections() != 0 {
				t.Fatalf("drop policy re-injected balls: %+v", out)
			}
		case PolicyReinject:
			if out.ReinjectedBalls+sch.PendingReinjections() != released {
				t.Fatalf("reinject policy lost balls: reinjected %d + pending %d != released %d",
					out.ReinjectedBalls, sch.PendingReinjections(), released)
			}
		case PolicySaturate:
			after := 0
			for u, l := range sch.Loads() {
				if topo.FailedServer(u) && l != 0 {
					t.Fatalf("failed server %d carries load %d", u, l)
				}
				after += l
			}
			// The epoch had no demand, so the survivors' carried load is
			// exactly the pre-wave total: nothing dropped.
			if after != carried {
				t.Fatalf("saturate policy lost balls: %d carried after wave, want %d", after, carried)
			}
		}
		if out.FailedServers != len(wave) {
			t.Fatalf("outcome reports %d failed servers, want %d", out.FailedServers, len(wave))
		}
	}
}

// TestSchedulerArrivalDemand checks the arrival-driven demand path: only
// arriving clients (plus re-injections) carry balls, and departed
// clients never do.
func TestSchedulerArrivalDemand(t *testing.T) {
	const n, m, k = 60, 50, 4
	base, err := gen.TrustSubsetImplicit(n, m, k, 7)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := New(Config{Base: base, Sampler: TrustSampler(m, k), Seed: 3, Backend: BackendCSRPatch})
	if err != nil {
		t.Fatal(err)
	}
	oneWorker := core.Config{Variant: core.SAER, D: 2, C: 4, Workers: 1}
	sch, err := NewScheduler(topo, SchedulerConfig{Protocol: oneWorker}, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Everyone departs; then eight clients arrive.
	all := make([]int32, n)
	for v := range all {
		all[v] = int32(v)
	}
	out, err := sch.Step(EpochEvent{Dt: 1, Depart: all})
	if err != nil {
		t.Fatal(err)
	}
	if out.DemandBalls != 0 || out.Rounds != 0 {
		t.Fatalf("empty epoch placed balls: %+v", out)
	}
	arrivals := topo.SampleAbsent(rng.New(1), 8)
	out, err = sch.Step(EpochEvent{Dt: 1, Arrive: arrivals})
	if err != nil {
		t.Fatal(err)
	}
	if out.DemandBalls != 8*2 {
		t.Fatalf("arrival epoch injected %d balls, want %d", out.DemandBalls, 16)
	}
	if !out.Completed {
		t.Fatalf("tiny arrival batch did not complete: %+v", out)
	}
	if out.PresentClients != 8 {
		t.Fatalf("present count %d, want 8", out.PresentClients)
	}
}

// TestSchedulerValidation rejects broken configurations.
func TestSchedulerValidation(t *testing.T) {
	base, err := gen.TrustSubsetImplicit(10, 10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := New(Config{Base: base, Sampler: TrustSampler(10, 2), Seed: 1, Backend: BackendImplicit})
	if err != nil {
		t.Fatal(err)
	}
	proto := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: 1}
	noBalls := proto
	noBalls.D = 0
	if _, err := NewScheduler(topo, SchedulerConfig{Protocol: noBalls}, 1); err == nil {
		t.Error("D=0 accepted")
	}
	if _, err := NewScheduler(topo, SchedulerConfig{Protocol: proto, LoadExpiry: 1.5}, 1); err == nil {
		t.Error("LoadExpiry=1.5 accepted")
	}
	if _, err := New(Config{Base: base, Sampler: Sampler{}, Seed: 1}); err == nil {
		t.Error("empty sampler accepted")
	}
	if _, err := New(Config{Base: base, Sampler: TrustSampler(10, 2), Backend: Backend(9)}); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("unknown policy parsed")
	}
	for _, p := range []Policy{PolicyDrop, PolicyReinject, PolicySaturate} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
}
