package core

import (
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// TestTelemetryEquivalence pins the telemetry layer's core contract:
// attaching a registry is pure observation. The same configuration runs
// un-instrumented (the reference) and instrumented across worker counts
// and shard counts, and every Result must be bit-for-bit
// identical — any divergence means an instrument leaked into the random
// process or the round schedule.
func TestTelemetryEquivalence(t *testing.T) {
	n := 1024
	g := regularGraph(t, n, 40, 77)
	opts := Options{TrackRounds: true, TrackLoads: true, TrackAssignments: true}
	for _, variant := range []Variant{SAER, RAES} {
		for _, c := range []float64{4, 2} {
			p := Params{D: 2, C: c, Seed: 0xFEED}
			rp, ro := oneLane(p, opts)
			res, err := Run(g, variant, rp, ro)
			if err != nil {
				t.Fatalf("%s c=%v: reference failed: %v", variant, c, err)
			}
			ref := normalizedResult(res)
			for _, workers := range []int{1, 4} {
				for _, shards := range []int{0, 1, 3} {
					reg := telemetry.NewRegistry()
					pp := p
					pp.Workers = workers
					oo := opts
					oo.Shards = shards
					oo.Telemetry = reg
					res, err := Run(g, variant, pp, oo)
					if err != nil {
						t.Fatalf("%s c=%v workers=%d shards=%d: %v", variant, c, workers, shards, err)
					}
					if got := normalizedResult(res); !reflect.DeepEqual(got, ref) {
						t.Errorf("%s c=%v: instrumented run (workers=%d shards=%d) diverges from un-instrumented reference",
							variant, c, workers, shards)
					}
					// The instruments must actually have counted the run.
					snap := reg.Snapshot()
					if got := snap.Counters["saer_rounds_total"]; got != int64(res.Rounds) {
						t.Errorf("%s c=%v workers=%d shards=%d: saer_rounds_total=%d, want %d",
							variant, c, workers, shards, got, res.Rounds)
					}
					if got := snap.Counters["saer_requests_total"]; got != res.TotalRequests {
						t.Errorf("%s c=%v workers=%d shards=%d: saer_requests_total=%d, want %d",
							variant, c, workers, shards, got, res.TotalRequests)
					}
					if h, ok := snap.Histograms[`saer_phase_seconds{phase="draw"}`]; !ok || h.Count != int64(res.Rounds) {
						t.Errorf("%s c=%v workers=%d shards=%d: draw-phase histogram count=%d, want %d",
							variant, c, workers, shards, h.Count, res.Rounds)
					}
				}
			}
		}
	}
}

// TestTelemetryEquivalenceDriver repeats the contract on the split
// client/server execution: a Driver over a LocalBank with a registry
// attached must reproduce the un-instrumented Runner bit for bit, and
// the shared instrument names must tally the driver's rounds.
func TestTelemetryEquivalenceDriver(t *testing.T) {
	g := regularGraph(t, 1024, 40, 77)
	cfg := NewConfig(SAER, 2, 2, 0xFEED)
	cfg.TrackRounds = true
	cfg.TrackLoads = true
	ref := func() *Result {
		rcfg := cfg
		rcfg.Workers = 1
		rcfg.Shards = 1
		res, err := rcfg.Run(g)
		if err != nil {
			t.Fatalf("reference failed: %v", err)
		}
		return normalizedResult(res)
	}()
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 3} {
			reg := telemetry.NewRegistry()
			wcfg := cfg
			wcfg.Workers = workers
			wcfg.Telemetry = reg
			dr, err := NewLocalDriver(g, wcfg, shards)
			if err != nil {
				t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
			}
			res, err := dr.Run()
			if err != nil {
				t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
			}
			if got := normalizedResult(res); !reflect.DeepEqual(got, ref) {
				t.Errorf("instrumented driver (workers=%d shards=%d) diverges from un-instrumented runner", workers, shards)
			}
			snap := reg.Snapshot()
			if got := snap.Counters["saer_rounds_total"]; got != int64(res.Rounds) {
				t.Errorf("workers=%d shards=%d: saer_rounds_total=%d, want %d", workers, shards, got, res.Rounds)
			}
		}
	}
}

// TestTelemetryEquivalenceRepeatedRuns pins that a shared registry
// accumulates across reseeded runs without perturbing them: two trials
// on one instrumented Runner equal two un-instrumented trials, and the
// round counter holds the sum.
func TestTelemetryEquivalenceRepeatedRuns(t *testing.T) {
	g := regularGraph(t, 512, 30, 9)
	reg := telemetry.NewRegistry()
	cfg := NewConfig(RAES, 2, 3, 1)
	icfg := cfg
	icfg.Telemetry = reg
	r, err := icfg.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	totalRounds := 0
	for trial := 0; trial < 2; trial++ {
		seed := uint64(100 + trial)
		r.Reseed(seed)
		got := r.Run()
		rcfg := cfg
		rcfg.Seed = seed
		want, err := rcfg.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizedResult(got), normalizedResult(want)) {
			t.Errorf("trial %d: instrumented reseeded run diverges from fresh un-instrumented run", trial)
		}
		totalRounds += got.Rounds
	}
	if got := reg.Snapshot().Counters["saer_rounds_total"]; got != int64(totalRounds) {
		t.Errorf("saer_rounds_total=%d after two trials, want %d", got, totalRounds)
	}
}
