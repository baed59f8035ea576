package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func TestSpecTablesAreValid(t *testing.T) {
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		if err := validateSpecs(specs); err != nil {
			t.Error(err)
		}
	}
}

func TestValidateSpecsRejects(t *testing.T) {
	cases := map[string][]metricSpec{
		"space in name":   {{"run ms", "ms", "lower"}},
		"leading dot":     {{".x", "ms", "lower"}},
		"long name":       {{strings.Repeat("a", 65), "ms", "lower"}},
		"empty unit":      {{"x", "", "lower"}},
		"long unit":       {{"x", strings.Repeat("u", 17), "lower"}},
		"space in unit":   {{"x", "m s", "lower"}},
		"bad direction":   {{"x", "ms", "faster"}},
		"name used twice": {{"x", "ms", "lower"}, {"x", "s", "lower"}},
	}
	for name, specs := range cases {
		if err := validateSpecs(specs); err == nil {
			t.Errorf("%s: accepted %+v", name, specs)
		}
	}
}

// TestSpecsMatchBenchmarkJSON pins the workload names and the metric
// tables to the BENCHMARK.json at the repository root.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		name      string
		json, tab []metricSpec
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.tab) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", c.name, len(c.json), len(c.tab))
			continue
		}
		for i := range c.tab {
			if c.json[i] != c.tab[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", c.name, i, c.json[i], c.tab[i])
			}
		}
	}
}

func TestBuildMetrics(t *testing.T) {
	specs := []metricSpec{{"a_ms", "ms", "lower"}, {"b", "1/s", "higher"}}
	m, err := buildMetrics(specs, map[string]float64{"a_ms": 1.5, "b": 2})
	if err != nil {
		t.Fatal(err)
	}
	if m["a_ms"] != (metricValue{1.5, "ms"}) || m["b"] != (metricValue{2, "1/s"}) {
		t.Errorf("got %+v", m)
	}
	for name, values := range map[string]map[string]float64{
		"missing":    {"a_ms": 1},
		"undeclared": {"a_ms": 1, "b": 2, "c": 3},
		"NaN":        {"a_ms": math.NaN(), "b": 2},
		"infinite":   {"a_ms": 1, "b": math.Inf(1)},
	} {
		if _, err := buildMetrics(specs, values); err == nil {
			t.Errorf("%s: accepted %v", name, values)
		}
	}
}

func TestResultLineKeys(t *testing.T) {
	b, err := json.Marshal(result{Correct: true, Attempted: 3, Metrics: map[string]metricValue{"x": {1, "ms"}}})
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, b)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(keys), b)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "pq-dense", "--trace", "2"},
		{"--workload", "pq-dense", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestDeriveIsDeterministic(t *testing.T) {
	if derive(7, streamEvents) != derive(7, streamEvents) {
		t.Error("same seed and stream gave different seeds")
	}
	seen := map[uint64]bool{}
	for _, s := range []uint64{derive(7, streamScheduler), derive(7, streamEvents), derive(8, streamScheduler), trialSeed(7, 0), trialSeed(7, 1)} {
		if seen[s] {
			t.Errorf("derived seed %x repeats", s)
		}
		seen[s] = true
	}
}

func TestParseSteal(t *testing.T) {
	if got := parseSteal("cpu  22948 0 3163 187829 183 0 152 6684 0 0"); got != 6684*clockTick {
		t.Errorf("steal = %v, want %v", got, 6684*clockTick)
	}
	for _, line := range []string{"", "cpu 1 2 3", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3 4 5 6 7 x"} {
		if got := parseSteal(line); got != 0 {
			t.Errorf("%q: steal = %v, want 0", line, got)
		}
	}
}

func TestParseCPUModel(t *testing.T) {
	sc := bufio.NewScanner(strings.NewReader("processor\t: 0\nmodel name\t: Test CPU @ 2.00GHz\nflags\t: fpu\n"))
	if got := parseCPUModel(sc); got != "Test CPU @ 2.00GHz" {
		t.Errorf("got %q", got)
	}
}

func TestCleanestKeepsLeastStolenExecution(t *testing.T) {
	// A 1 ms execution that lost ≥ 10 ms of CPU is never clean on fewer
	// than 200 CPUs.
	steals := []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	calls := 0
	s, chosen, err := cleanest(func(a int) (sample, error) {
		calls++
		return sample{wall: time.Millisecond, steal: steals[a]}, nil
	})
	if err != nil || calls != maxAttempts || chosen != 1 || s.steal != steals[1] {
		t.Errorf("%d executions, kept %d (steal %v, err %v); want %d executions keeping attempt 1",
			calls, chosen, s.steal, err, maxAttempts)
	}

	calls = 0
	if _, kept, _ := cleanest(func(int) (sample, error) {
		calls++
		return sample{wall: time.Millisecond}, nil
	}); calls != 1 || kept != 0 {
		t.Errorf("a clean first execution ran %d times, kept %d", calls, kept)
	}

	if _, _, err := cleanest(func(int) (sample, error) { return sample{}, io.ErrUnexpectedEOF }); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("error not returned: %v", err)
	}
}

func TestSampleReplace(t *testing.T) {
	s := sample{wall: 305, cpu: 510, steal: 20, alloc: 1100, gcCycles: 2, gcPause: 7}
	spent := sample{wall: 300, cpu: 500, steal: 20, alloc: 1000, gcCycles: 2, gcPause: 6}
	kept := sample{wall: 100, cpu: 180, steal: 0, alloc: 400, gcCycles: 1, gcPause: 3}
	s.replace(spent, kept)
	want := sample{wall: 105, cpu: 190, steal: 0, alloc: 500, gcCycles: 1, gcPause: 4}
	if s != want {
		t.Errorf("got %+v, want %+v", s, want)
	}
}

func TestCheckResult(t *testing.T) {
	topo, err := gen.RegularImplicit(1024, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: 2}.Run(topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(res, 0); err != nil {
		t.Fatalf("a correct run fails: %v", err)
	}
	for name, mutate := range map[string]func(r *core.Result){
		"incomplete": func(r *core.Result) { r.Completed = false },
		"overloaded": func(r *core.Result) { r.MaxLoad = r.LoadBound() + 1 },
		"lost ball":  func(r *core.Result) { r.MeanLoad -= 1 / float64(r.NumServers) },
	} {
		bad := *res
		mutate(&bad)
		if err := checkResult(&bad, 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := checkResult(res, 5); err == nil {
		t.Error("unaccounted carried load: accepted")
	}
}

// wireBytes sums a registry's wire byte counters, both directions.
func wireBytes(reg *telemetry.Registry) int64 {
	var sum int64
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "saer_wire_tx_bytes_total") || strings.HasPrefix(name, "saer_wire_rx_bytes_total") {
			sum += v
		}
	}
	return sum
}

// TestTimedBankBytesMatchWireTraffic checks the computed frame bytes
// against the bytes the wire transport counts on real sockets.
func TestTimedBankBytesMatchWireTraffic(t *testing.T) {
	topo, err := gen.RegularImplicit(4096, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]int, topo.NumServers())
	for u := range loads {
		loads[u] = u % 3
	}
	cfg := core.Config{Variant: core.SAER, D: 2, C: 4, Workers: 2, InitialLoads: loads}
	servers, err := wire.StartLocalSet(2)
	if err != nil {
		t.Fatal(err)
	}
	defer servers.Close()
	reg := telemetry.NewRegistry()
	bank, err := wire.DialConfig(servers.Addrs(), cfg.Variant, int32(cfg.Params().Capacity()), topo.NumServers(), wire.BankConfig{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer bank.Close()
	tb := &timedBank{ServerBank: bank, windows: bank.Windows()}
	dr, err := core.NewDriver(topo, cfg, tb)
	if err != nil {
		t.Fatal(err)
	}
	before := wireBytes(reg)
	for seed := uint64(1); seed <= 3; seed++ {
		dr.Reseed(seed)
		if _, err := dr.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := tb.bytes, wireBytes(reg)-before; got != want {
		t.Errorf("computed %d bytes, the transport counted %d", got, want)
	}
	if tb.rounds == 0 || tb.touched == 0 || tb.decide <= 0 {
		t.Errorf("empty counters: %+v", tb.bankCounters)
	}
}

// TestReplayRound1MatchesDriverBatch replays round 1 on a point-query
// topology and on a churn topology under failures (rows only, per-client
// ball counts) and checks the fold against the batch a Driver shipped.
func TestReplayRound1MatchesDriverBatch(t *testing.T) {
	const n = 4096
	pq, err := gen.RegularImplicit(n, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	base, err := gen.TrustSubsetImplicit(n, n, 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := churn.New(churn.Config{Base: base, Sampler: churn.TrustSampler(n, 16), Seed: 7, Backend: churn.BackendImplicit})
	if err != nil {
		t.Fatal(err)
	}
	rows.Rewire(1, []int32{1, 2, 3, 100})
	if err := rows.FailServers([]int32{5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	reqs := make([]int, n)
	for v := range reqs {
		reqs[v] = v % 3
	}
	for _, c := range []struct {
		name string
		topo bipartite.Topology
		base bipartite.PointQueryable
		reqs []int
	}{
		{"point-query", pq, nil, nil},
		{"rows", rows, base, reqs},
	} {
		cfg := core.Config{Variant: core.RAES, D: 2, C: 4, Workers: 2, RequestCounts: c.reqs}
		bank, err := core.NewLocalBank(cfg.Variant, 8, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		tb := &timedBank{ServerBank: bank, capture: true}
		dr, err := core.NewDriver(c.topo, cfg, tb)
		if err != nil {
			t.Fatal(err)
		}
		dr.Reseed(11)
		if _, err := dr.Run(); err != nil {
			t.Fatal(err)
		}
		ld := &layerData{}
		if err := replayRound1(ld, c.topo, c.base, 11, 2, c.reqs, tb.first); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if ld.intnNs <= 0 || ld.neighborAtNs <= 0 || ld.rowNsPerEdge <= 0 || ld.routeFoldNs <= 0 {
			t.Errorf("%s: a replay timing is not positive: intn %v neighborAt %v row %v fold %v",
				c.name, ld.intnNs, ld.neighborAtNs, ld.rowNsPerEdge, ld.routeFoldNs)
		}
		if err := replayRound1(ld, c.topo, c.base, 12, 2, c.reqs, tb.first); err == nil {
			t.Errorf("%s: the replay at another seed matched the batch", c.name)
		}
	}
}
