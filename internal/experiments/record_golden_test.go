package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sweep"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the JSON record golden files")

// TestJSONRecordGolden pins the machine-readable record schema of
// `saer-experiments -json`: the full E1 quick-mode stream (fixed seed,
// 2 trials) must match the committed golden file byte for byte, so a
// schema or determinism drift cannot land silently. Regenerate after an
// intentional change with:
//
//	go test ./internal/experiments -run TestJSONRecordGolden -update-golden
func TestJSONRecordGolden(t *testing.T) {
	compareGolden(t, "e1_quick_records.golden", quickRecords(t, ExperimentCompletionScaling))
}

// TestJSONRecordGoldenDynamic pins the record stream of the dynamic
// experiment E12, which additionally exercises the "round" record type:
// with a recorder attached the scenario tracks its per-round series and
// streams one round record per (path, batch, round), each tagged with
// its epoch. The incremental path runs through the churn subsystem, so
// this golden also pins that the scenario is deterministic end to end.
func TestJSONRecordGoldenDynamic(t *testing.T) {
	got := quickRecords(t, ExperimentDynamic)
	if !bytes.Contains(got, []byte(`"type":"round"`)) {
		t.Fatal("E12 stream contains no round records")
	}
	if !bytes.Contains(got, []byte(`"epoch":`)) {
		t.Fatal("E12 round records carry no epoch tags")
	}
	compareGolden(t, "e12_quick_records.golden", got)
}

// TestJSONRecordGoldenRows pins the quick record streams of the
// experiments built on the partial-shuffle sampler (gen.SampleRow and
// gen.SampleAt: trust-subset and almost-regular topologies, churn's
// TrustSampler) or on failed-server filtering. E16 fails servers, so its
// draws read whole rows; the others draw their sampler-built neighbors
// through point queries (gen.SampleAt). The equivalence suites compare
// paths inside one build, so only a pin across versions catches a change
// to the sampler itself. Regenerate after an intentional change with:
//
//	go test ./internal/experiments -run TestJSONRecordGoldenRows -update-golden
func TestJSONRecordGoldenRows(t *testing.T) {
	for _, tc := range []struct {
		id  string
		run func(SuiteConfig) (*Table, error)
	}{
		{"e5", ExperimentMaxLoad},
		{"e8", ExperimentAlmostRegular},
		{"e15", ExperimentChurnRate},
		{"e16", ExperimentFailureWaves},
		{"e17", ExperimentArrivalProcesses},
	} {
		t.Run(tc.id, func(t *testing.T) {
			compareGolden(t, tc.id+"_quick_records.golden", quickRecords(t, tc.run))
		})
	}
}

// TestJSONRecordGoldenQuick pins the quick record streams of the
// remaining experiments, so that with the E1, E12 and row-path pins every
// quick stream of the suite is fixed across versions: a change to shared
// code (the client loop's draw, a stream derivation, the record encoder)
// moves them all together and passes every in-build equivalence suite,
// so only a committed stream catches it. Regenerate after an intentional
// change with:
//
//	go test ./internal/experiments -run TestJSONRecordGoldenQuick -update-golden
func TestJSONRecordGoldenQuick(t *testing.T) {
	for _, tc := range []struct {
		id  string
		run func(SuiteConfig) (*Table, error)
	}{
		{"e2", ExperimentWorkScaling},
		{"e3", ExperimentBurnedFraction},
		{"e4", ExperimentSAERvsRAES},
		{"e6", ExperimentDegreeSweep},
		{"e7", ExperimentSequentialBaselines},
		{"e9", ExperimentThresholdSweep},
		{"e10", ExperimentDenseRegime},
		{"e11", ExperimentAliveDecay},
		{"e13", ExperimentExpanderExtraction},
		{"e14", ExperimentHeterogeneousDemand},
	} {
		t.Run(tc.id, func(t *testing.T) {
			compareGolden(t, tc.id+"_quick_records.golden", quickRecords(t, tc.run))
		})
	}
}

// quickRecords runs one experiment in quick mode (fixed seed, 2 trials)
// and returns its JSON record stream.
func quickRecords(t *testing.T, run func(SuiteConfig) (*Table, error)) []byte {
	t.Helper()
	cfg := QuickSuiteConfig()
	cfg.Trials = 2
	cfg.TrialParallelism = 3 // the stream must not depend on parallelism
	var buf bytes.Buffer
	cfg.Records = sweep.NewRecorder(&buf)
	if _, err := run(cfg); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-golden to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSON record stream drifted from the golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
