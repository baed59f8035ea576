package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
)

// testSpec is a small two-point sweep over the regular family.
func testSpec() Spec {
	spec := Spec{
		ID:      "T1",
		Title:   "engine test",
		Columns: []string{"n", "rounds_max", "completed"},
	}
	for _, n := range []int{128, 256} {
		n := n
		spec.Points = append(spec.Points, Point{
			ID:       fmt.Sprintf("n=%d", n),
			Topology: Topo{Family: FamRegular, N: n, Delta: 16, SeedKey: []uint64{1, uint64(n)}},
			Protocol: core.Config{Variant: core.SAER, D: 2, C: 4},
			SeedKey:  []uint64{1, uint64(n)},
			Render: func(cfg Config, out *Outcome, t *Table) error {
				maxRounds, completed := 0, true
				for _, r := range out.Results {
					if r.Rounds > maxRounds {
						maxRounds = r.Rounds
					}
					completed = completed && r.Completed
				}
				t.AddRowf(n, maxRounds, FmtBool(completed))
				return nil
			},
		})
	}
	return spec
}

// TestRunDeterministicAcrossParallelism is the engine's determinism
// contract: the rendered table (and the record stream) must not depend on
// how many trial workers execute it.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	var ref string
	var refRecords string
	for _, par := range []int{1, 4} {
		cfg := Config{Quick: true, Seed: 99, Trials: 5, TrialParallelism: par}
		var buf bytes.Buffer
		cfg.Records = NewRecorder(&buf)
		tb, err := Run(cfg, testSpec())
		if err != nil {
			t.Fatal(err)
		}
		if par == 1 {
			ref = tb.String()
			refRecords = buf.String()
			continue
		}
		if tb.String() != ref {
			t.Errorf("parallelism=%d: table diverges:\n%s\nvs\n%s", par, tb, ref)
		}
		if buf.String() != refRecords {
			t.Errorf("parallelism=%d: record stream diverges", par)
		}
	}
}

// TestRunTopologyCache checks that consecutive points with the same
// declaration share one built topology and that a changed declaration
// rebuilds.
func TestRunTopologyCache(t *testing.T) {
	builds := 0
	custom := func(key string) Topo {
		return Topo{Family: FamCustom, Key: key, Build: func(cfg Config, seed uint64) (bipartite.Topology, error) {
			builds++
			return gen.RegularImplicit(64, 8, seed)
		}}
	}
	spec := Spec{ID: "T2", Title: "cache", Columns: []string{"x"}}
	for i, key := range []string{"a", "a", "b", "a"} {
		spec.Points = append(spec.Points, Point{
			ID:       fmt.Sprintf("p%d", i),
			Topology: custom(key),
			Protocol: core.Config{Variant: core.SAER, D: 1, C: 4},
			SeedKey:  []uint64{uint64(i)},
			Trials:   1,
		})
	}
	if _, err := Run(Config{Seed: 1}, spec); err != nil {
		t.Fatal(err)
	}
	// a, (cached), b, a-again: the cache holds only the previous build.
	if builds != 3 {
		t.Errorf("built %d topologies, want 3 (LRU-1 cache over a,a,b,a)", builds)
	}
}

// TestRunParamsFrom checks that the run parameters can be derived from
// the built topology through ProtocolFrom.
func TestRunParamsFrom(t *testing.T) {
	spec := Spec{ID: "T3", Title: "params", Columns: []string{"cap"}}
	spec.Points = append(spec.Points, Point{
		ID:       "p",
		Topology: Topo{Family: FamRegular, N: 64, Delta: 8, SeedKey: []uint64{3}},
		ProtocolFrom: func(cfg Config, g bipartite.Topology) (core.Config, error) {
			if g.NumClients() != 64 {
				return core.Config{}, fmt.Errorf("wrong topology: %d clients", g.NumClients())
			}
			return core.Config{Variant: core.SAER, D: 2, C: 3}, nil
		},
		SeedKey: []uint64{3},
		Trials:  1,
		Render: func(cfg Config, out *Outcome, t *Table) error {
			t.AddRowf(out.Results[0].Params.Capacity())
			return nil
		},
	})
	tb, err := Run(Config{Seed: 5}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0][0] != "6" {
		t.Errorf("derived params not applied: cap cell %q, want 6", tb.Rows[0][0])
	}
}

// TestRunCustomAndSeedOverride checks custom per-trial runners and the
// trial-less seed derivation.
func TestRunCustomAndSeedOverride(t *testing.T) {
	var seeds []uint64
	spec := Spec{ID: "T4", Title: "custom", Columns: []string{"trials"}}
	spec.Points = append(spec.Points, Point{
		ID:     "p",
		Trials: 1,
		Seed:   func(cfg Config, _ int) uint64 { return cfg.TrialSeed(42) },
		Run: func(cfg Config, g bipartite.Topology, trial int, seed uint64) (any, error) {
			if g != nil {
				return nil, fmt.Errorf("FamNone point should get a nil topology")
			}
			seeds = append(seeds, seed)
			return trial, nil
		},
		Render: func(cfg Config, out *Outcome, t *Table) error {
			t.AddRowf(len(out.Custom))
			return nil
		},
	})
	cfg := Config{Seed: 7}
	tb, err := Run(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0][0] != "1" {
		t.Errorf("custom outputs not collected: %v", tb.Rows)
	}
	if len(seeds) != 1 || seeds[0] != cfg.TrialSeed(42) {
		t.Errorf("seed override not honored: %v, want %d", seeds, cfg.TrialSeed(42))
	}
}

// TestRunRejectsProtocolPointWithoutTopology guards the FamNone misuse.
func TestRunRejectsProtocolPointWithoutTopology(t *testing.T) {
	spec := Spec{ID: "T5", Title: "bad", Columns: []string{"x"}}
	spec.Points = append(spec.Points, Point{ID: "p", Protocol: core.Config{Variant: core.SAER, D: 1, C: 4}, Trials: 1})
	if _, err := Run(Config{}, spec); err == nil || !strings.Contains(err.Error(), "FamNone") {
		t.Fatalf("protocol point without topology accepted: %v", err)
	}
}

// TestRecorderStream checks the record type sequence of a small sweep.
func TestRecorderStream(t *testing.T) {
	cfg := Config{Quick: true, Seed: 1, Trials: 2}
	var buf bytes.Buffer
	cfg.Records = NewRecorder(&buf)
	spec := testSpec()
	spec.Finalize = func(cfg Config, outs []*Outcome, t *Table) error {
		t.AddNote("a note")
		return nil
	}
	if _, err := Run(cfg, spec); err != nil {
		t.Fatal(err)
	}
	var types []string
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec.Experiment != "T1" {
			t.Errorf("record with wrong experiment: %+v", rec)
		}
		types = append(types, rec.Type)
	}
	want := []string{"table", "trial", "trial", "row", "trial", "trial", "row", "note"}
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Errorf("record type sequence %v, want %v", types, want)
	}
}

// TestImplicitCSRTwinEquivalence checks the engine-level topology knob:
// the same spec under "implicit" and "implicit-csr" must render identical
// tables (identical edge multisets, identical runs), and under "csr" a
// different graph family sample (the materialized generators draw
// differently) — but still a valid table.
func TestImplicitCSRTwinEquivalence(t *testing.T) {
	base := Config{Quick: true, Seed: 3, Trials: 3}
	implicit := base
	implicit.Topology = "implicit"
	twin := base
	twin.Topology = "implicit-csr"
	ti, err := Run(implicit, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	tc, err := Run(twin, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if ti.String() != tc.String() {
		t.Errorf("implicit vs implicit-csr tables diverge:\n%s\nvs\n%s", ti, tc)
	}
	csr := base
	csr.Topology = "csr"
	if _, err := Run(csr, testSpec()); err != nil {
		t.Fatal(err)
	}
}
