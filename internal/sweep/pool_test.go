package sweep

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

func TestForEachTrialCoversAllTrialsOnce(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		cfg := Config{Quick: true, TrialParallelism: par}
		const trials = 37
		var counts [trials]int32
		err := forEachTrial(cfg, trials, nil, func(worker, trial int) error {
			if worker < 0 || worker >= par {
				t.Errorf("worker index %d outside [0,%d)", worker, par)
			}
			atomic.AddInt32(&counts[trial], 1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("parallelism=%d: trial %d executed %d times", par, i, c)
			}
		}
	}
}

func TestForEachTrialReturnsFirstError(t *testing.T) {
	cfg := Config{Quick: true, TrialParallelism: 4}
	sentinel := errors.New("trial 5 failed")
	err := forEachTrial(cfg, 20, nil, func(_, trial int) error {
		if trial >= 5 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the trial-5 sentinel", err)
	}
	if err := forEachTrial(cfg, 0, nil, func(_, _ int) error { return sentinel }); err != nil {
		t.Fatalf("zero trials should be a no-op, got %v", err)
	}
}

// TestRunPooledTrialsMatchesFreshRuns is the determinism contract of the
// trial pool: reusing Runners via Reseed must give results bit-for-bit
// identical to fresh single-threaded runs, in trial order, for every
// parallelism level.
func TestRunPooledTrialsMatchesFreshRuns(t *testing.T) {
	g, err := gen.Regular(512, 30, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	proto := core.Config{Variant: core.SAER, D: 2, C: 2.5, TrackRounds: true, TrackLoads: true}
	seed := func(trial int) uint64 { return 0xBEEF + uint64(trial)*7 }
	const trials = 12

	fresh := make([]*core.Result, trials)
	for i := 0; i < trials; i++ {
		p := proto
		p.Workers = 1
		p.Seed = seed(i)
		fresh[i], err = p.Run(g)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, par := range []int{1, 3, 8} {
		cfg := Config{Quick: true, TrialParallelism: par}
		got, err := runPooledTrials(cfg, trials, g, proto, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != trials {
			t.Fatalf("parallelism=%d: got %d results, want %d", par, len(got), trials)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], fresh[i]) {
				t.Fatalf("parallelism=%d trial=%d: pooled result diverges from fresh run:\n  fresh=%+v\n  pooled=%+v",
					par, i, fresh[i], got[i])
			}
		}
	}
}

func TestTrialWorkersSplit(t *testing.T) {
	small, err := gen.RegularImplicit(512, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := gen.RegularImplicit(intraTrialMinClients, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	huge, err := gen.RegularImplicit(hugePointMinClients, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name        string
		g           interface{ NumClients() int }
		parallelism int
		trials      int
		want        int
	}{
		{"small point stays trial-parallel", small, 8, 10, 1},
		{"nil topology stays trial-parallel", nil, 8, 1, 1},
		{"big point, many trials: budget goes to trials", big, 8, 10, 1},
		{"big point, one trial: budget goes to the Runner", big, 8, 1, 8},
		{"big point, split budget", big, 8, 3, 2},
		{"single-worker budget", big, 1, 1, 1},
		{"huge point, many trials: whole budget to the Runner", huge, 8, 10, 8},
		{"huge point, one trial", huge, 8, 1, 8},
	}
	for _, tc := range cases {
		cfg := Config{TrialParallelism: tc.parallelism}
		var topo bipartite.Topology
		if tc.g != nil {
			topo = tc.g.(bipartite.Topology)
		}
		got := trialWorkers(cfg, tc.trials, topo)
		if got != tc.want {
			t.Errorf("%s: trialWorkers = %d, want %d", tc.name, got, tc.want)
		}
		if concurrent := concurrentTrials(cfg, tc.trials, topo); got*concurrent > tc.parallelism {
			t.Errorf("%s: split %d×%d exceeds the budget %d", tc.name, got, concurrent, tc.parallelism)
		}
	}
}

// TestRunPooledTrialsIntraTrialDeterminism pins the worker-budget split's
// determinism: a big point whose trials run on multi-worker sharded
// Runners must produce results bit-for-bit identical to fresh
// single-threaded runs.
func TestRunPooledTrialsIntraTrialDeterminism(t *testing.T) {
	g, err := gen.RegularImplicit(intraTrialMinClients, 12, 44)
	if err != nil {
		t.Fatal(err)
	}
	proto := core.Config{Variant: core.SAER, D: 2, C: 4, TrackLoads: true}
	seed := func(trial int) uint64 { return 0xF00D + uint64(trial) }
	const trials = 2
	cfg := Config{TrialParallelism: 8}
	if w := trialWorkers(cfg, trials, g); w <= 1 {
		t.Fatalf("setup broken: split gave %d workers, want > 1", w)
	}
	got, err := runPooledTrials(cfg, trials, g, proto, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		p := proto
		p.Workers = 1
		p.Seed = seed(i)
		fresh, err := p.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], fresh) {
			t.Fatalf("trial %d: multi-worker pooled result diverges from fresh single-threaded run", i)
		}
	}
}

func TestRunPooledTrialsPropagatesRunnerError(t *testing.T) {
	g, err := gen.Regular(64, 8, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Quick: true}
	// D = 0 is invalid and must surface as an error, not a panic.
	if _, err := runPooledTrials(cfg, 3, g, core.Config{Variant: core.SAER, D: 0, C: 4},
		func(trial int) uint64 { return uint64(trial) }); err == nil {
		t.Fatal("invalid config did not produce an error")
	}
}
