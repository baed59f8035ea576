package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// quickCfg is the reduced configuration all experiment tests run with; it
// keeps the whole suite under a few seconds.
func quickCfg() SuiteConfig {
	cfg := QuickSuiteConfig()
	cfg.Trials = 2
	return cfg
}

func TestRegistryCompleteAndOrdered(t *testing.T) {
	exps := All()
	if len(exps) != 17 {
		t.Fatalf("registry has %d experiments, want 17", len(exps))
	}
	for i, e := range exps {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Errorf("experiment %d has ID %s, want %s", i, e.ID, want)
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %s is missing metadata", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("E3")
	if err != nil || e.ID != "E3" {
		t.Fatalf("ByID(E3) = %v, %v", e, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Error("unknown ID accepted")
	}
}

// checkTable verifies the basic well-formedness every experiment table
// must satisfy.
func checkTable(t *testing.T, tb *Table, wantID string) {
	t.Helper()
	if tb == nil {
		t.Fatal("nil table")
	}
	if tb.ID != wantID {
		t.Errorf("table ID %s, want %s", tb.ID, wantID)
	}
	if len(tb.Columns) == 0 {
		t.Error("table has no columns")
	}
	if len(tb.Rows) == 0 {
		t.Error("table has no rows")
	}
	for i, row := range tb.Rows {
		if len(row) != len(tb.Columns) {
			t.Errorf("row %d has %d cells for %d columns", i, len(row), len(tb.Columns))
		}
	}
	if tb.String() == "" {
		t.Error("table renders to empty string")
	}
}

func TestExperimentE1Completion(t *testing.T) {
	tb, err := ExperimentCompletionScaling(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E1")
	// Every row must report completion within the bound on these sizes.
	col := indexOf(tb.Columns, "within_bound")
	for _, row := range tb.Rows {
		if row[col] != "yes" {
			t.Errorf("row %v not within the completion bound", row)
		}
	}
}

func TestExperimentE2Work(t *testing.T) {
	tb, err := ExperimentWorkScaling(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E2")
	// Work per ball must stay bounded by a small constant across n.
	col := indexOf(tb.Columns, "work_per_ball_mean")
	for _, row := range tb.Rows {
		v := parseFloat(t, row[col])
		if v < 2 || v > 12 {
			t.Errorf("work per ball %v outside the expected constant range", v)
		}
	}
}

func TestExperimentE3Burned(t *testing.T) {
	tb, err := ExperimentBurnedFraction(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E3")
	col := indexOf(tb.Columns, "below_bound")
	for _, row := range tb.Rows {
		if row[col] != "yes" {
			t.Errorf("burned fraction exceeded 1/2 in row %v", row)
		}
	}
}

func TestExperimentE4SaerVsRaes(t *testing.T) {
	tb, err := ExperimentSAERvsRAES(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E4")
	// Rows alternate SAER/RAES per n.
	if len(tb.Rows)%2 != 0 {
		t.Error("expected an even number of rows (SAER and RAES per n)")
	}
}

func TestExperimentE5MaxLoad(t *testing.T) {
	tb, err := ExperimentMaxLoad(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E5")
	col := indexOf(tb.Columns, "within_cap")
	for _, row := range tb.Rows {
		if row[col] != "yes" {
			t.Errorf("load cap violated in row %v", row)
		}
	}
}

func TestExperimentE6DegreeSweep(t *testing.T) {
	tb, err := ExperimentDegreeSweep(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E6")
}

func TestExperimentE7Baselines(t *testing.T) {
	tb, err := ExperimentSequentialBaselines(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E7")
	// SAER, RAES and six baselines.
	if len(tb.Rows) != 8 {
		t.Errorf("expected 8 algorithm rows, got %d", len(tb.Rows))
	}
	algCol := indexOf(tb.Columns, "algorithm")
	found := map[string]bool{}
	for _, row := range tb.Rows {
		found[row[algCol]] = true
	}
	for _, want := range []string{"SAER", "RAES", "one-choice", "greedy-best-of-2", "greedy-full-scan"} {
		if !found[want] {
			t.Errorf("missing algorithm row %q", want)
		}
	}
}

func TestExperimentE8AlmostRegular(t *testing.T) {
	tb, err := ExperimentAlmostRegular(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E8")
	col := indexOf(tb.Columns, "success")
	for _, row := range tb.Rows {
		if row[col] != "100%" {
			t.Errorf("almost-regular run did not always complete: %v", row)
		}
	}
}

func TestExperimentE9Threshold(t *testing.T) {
	tb, err := ExperimentThresholdSweep(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E9")
	// The largest c (the paper's) must succeed in all trials.
	col := indexOf(tb.Columns, "success")
	last := tb.Rows[len(tb.Rows)-1]
	if last[col] != "100%" {
		t.Errorf("the paper's c did not always complete: %v", last)
	}
}

func TestExperimentE10Dense(t *testing.T) {
	tb, err := ExperimentDenseRegime(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E10")
}

func TestExperimentE11Decay(t *testing.T) {
	tb, err := ExperimentAliveDecay(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E11")
}

func TestExperimentE12Dynamic(t *testing.T) {
	tb, err := ExperimentDynamic(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E12")
	col := indexOf(tb.Columns, "completed")
	for _, row := range tb.Rows {
		if row[col] != "yes" {
			t.Errorf("dynamic batch did not complete: %v", row)
		}
	}
}

func TestExperimentE13Expander(t *testing.T) {
	tb, err := ExperimentExpanderExtraction(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E13")
	col := indexOf(tb.Columns, "expander_like")
	sigmaCol := indexOf(tb.Columns, "sigma2")
	for _, row := range tb.Rows {
		if row[col] != "yes" {
			t.Errorf("assignment graph not expander-like: %v", row)
		}
		if parseFloat(t, row[sigmaCol]) >= 1 {
			t.Errorf("sigma2 should be < 1: %v", row)
		}
	}
}

func TestExperimentE14Demand(t *testing.T) {
	tb, err := ExperimentHeterogeneousDemand(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E14")
	success := indexOf(tb.Columns, "success")
	maxLoad := indexOf(tb.Columns, "max_load")
	capCol := indexOf(tb.Columns, "cap")
	for _, row := range tb.Rows {
		if row[success] != "100%" {
			t.Errorf("workload %q did not always complete", row[0])
		}
		if parseFloat(t, row[maxLoad]) > parseFloat(t, row[capCol]) {
			t.Errorf("workload %q violates the load cap: %v", row[0], row)
		}
	}
}

func TestExperimentE15ChurnRate(t *testing.T) {
	tb, err := ExperimentChurnRate(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E15")
	if len(tb.Rows) != len(e15Fractions) {
		t.Fatalf("expected one row per rewiring fraction, got %d", len(tb.Rows))
	}
	maxLoad := indexOf(tb.Columns, "max_load_max")
	capCol := indexOf(tb.Columns, "cap")
	for _, row := range tb.Rows {
		if parseFloat(t, row[maxLoad]) > parseFloat(t, row[capCol]) {
			t.Errorf("load cap violated under edge churn: %v", row)
		}
	}
}

func TestExperimentE16FailureWaves(t *testing.T) {
	tb, err := ExperimentFailureWaves(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E16")
	if len(tb.Rows) != 3 {
		t.Fatalf("expected one row per policy, got %d", len(tb.Rows))
	}
	maxLoad := indexOf(tb.Columns, "max_load_max")
	capCol := indexOf(tb.Columns, "cap")
	reinjected := indexOf(tb.Columns, "reinjected_total")
	policyCol := indexOf(tb.Columns, "policy")
	for _, row := range tb.Rows {
		if parseFloat(t, row[maxLoad]) > parseFloat(t, row[capCol]) {
			t.Errorf("load cap violated under failures: %v", row)
		}
		if row[policyCol] != "reinject" && row[reinjected] != "0" {
			t.Errorf("policy %q re-injected balls: %v", row[policyCol], row)
		}
	}
}

func TestExperimentE17Arrivals(t *testing.T) {
	tb, err := ExperimentArrivalProcesses(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, "E17")
	if len(tb.Rows) != 4 {
		t.Fatalf("expected batch/poisson × two occupancies, got %d rows", len(tb.Rows))
	}
	maxLoad := indexOf(tb.Columns, "max_load_max")
	capCol := indexOf(tb.Columns, "cap")
	arrived := indexOf(tb.Columns, "arrivals_total")
	for _, row := range tb.Rows {
		if parseFloat(t, row[maxLoad]) > parseFloat(t, row[capCol]) {
			t.Errorf("load cap violated under arrivals: %v", row)
		}
		if parseFloat(t, row[arrived]) == 0 {
			t.Errorf("no clients ever arrived: %v", row)
		}
	}
}

// TestE12IncrementalPathEquivalence pins the acceptance criterion that
// the incremental E12 scenario is deterministic across worker and shard
// counts: the same scenario stepped with multi-worker sharded Runners
// must produce exactly the single-worker outcomes. (The churn package's
// TestChurnSchedulerEquivalence covers the full matrix; this covers the
// E12 configuration specifically.)
func TestE12IncrementalPathEquivalence(t *testing.T) {
	dc := DefaultDynamicConfig(quickCfg())
	dc.TrackRounds = true
	ref, err := RunDynamicScenario(dc, 4242)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ref {
		if !o.Completed {
			t.Fatalf("reference batch %d did not complete", o.Batch)
		}
	}
	for _, workers := range []int{2, 4} {
		for _, shards := range []int{0, 1, 3, 8} {
			run := dc
			run.Workers = workers
			run.Shards = shards
			got, err := RunDynamicScenario(run, 4242)
			if err != nil {
				t.Fatal(err)
			}
			if !equalDynamicOutcomes(ref, got) {
				t.Fatalf("incremental scenario diverges at workers=%d shards=%d", workers, shards)
			}
		}
	}
}

func equalDynamicOutcomes(a, b []DynamicBatchOutcome) bool {
	return reflect.DeepEqual(a, b)
}

func TestAssignmentDegreeCheckHelper(t *testing.T) {
	cfg := quickCfg()
	g, err := buildRegular(256, 20, cfg.TrialSeed(99))
	if err != nil {
		t.Fatal(err)
	}
	proto := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: 5, Workers: 1, TrackAssignments: true}
	res, err := proto.Run(g)
	if err != nil || !res.Completed {
		t.Fatalf("run failed: %v %v", err, res)
	}
	sub, err := res.AssignmentGraph()
	if err != nil {
		t.Fatal(err)
	}
	if err := assignmentDegreeCheck(sub, 2, proto.Params().Capacity()); err != nil {
		t.Errorf("degree check failed: %v", err)
	}
	if err := assignmentDegreeCheck(sub, 3, proto.Params().Capacity()); err == nil {
		t.Error("degree check should fail for the wrong d")
	}
}

func TestRunDynamicScenarioValidation(t *testing.T) {
	if _, err := RunDynamicScenario(DynamicConfig{}, 1); err == nil {
		t.Error("empty dynamic config accepted")
	}
	dc := DefaultDynamicConfig(quickCfg())
	outcomes, err := RunDynamicScenario(dc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != dc.Batches {
		t.Fatalf("got %d batch outcomes, want %d", len(outcomes), dc.Batches)
	}
	capacity := core.Params{D: dc.D, C: dc.C}.Capacity()
	for _, o := range outcomes {
		if o.MaxLoad > capacity {
			t.Errorf("batch %d max load %d exceeds cap %d", o.Batch, o.MaxLoad, capacity)
		}
	}
}

func indexOf(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	return -1
}

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSpace(s)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not a float: %v", s, err)
	}
	return v
}

// TestExperimentTopologyEquivalence is the experiment-level form of the
// CSR-vs-implicit contract: running a whole experiment with every graph
// forced implicit must render byte-for-byte the same table as running it
// on the materialized twins of those implicit topologies ("implicit-csr").
// This extends the per-run TestTopologyEquivalence* suite in
// internal/core to the sweeps that newly run on implicit topologies
// (E3/E4/E6/E9, plus E5's trust-subset and almost-regular families and
// the E1/E2 scaling sweeps).
func TestExperimentTopologyEquivalence(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E8", "E9"} {
		id := id
		t.Run(id, func(t *testing.T) {
			exp, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			implicit := quickCfg()
			implicit.Topology = "implicit"
			twin := quickCfg()
			twin.Topology = "implicit-csr"
			ti, err := exp.Run(implicit)
			if err != nil {
				t.Fatalf("implicit run failed: %v", err)
			}
			tc, err := exp.Run(twin)
			if err != nil {
				t.Fatalf("implicit-csr run failed: %v", err)
			}
			if ti.String() != tc.String() {
				t.Errorf("implicit and materialized-twin tables diverge:\n--- implicit ---\n%s\n--- implicit-csr ---\n%s", ti, tc)
			}
		})
	}
}
