package experiments

import (
	"fmt"
	"math"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/spectral"
	"repro/internal/sweep"
)

// ExperimentExpanderExtraction (E13) exercises the extension the paper
// inherits from Becchetti et al. (footnote 5): the subgraph formed by the
// accepted client→server assignments is a bounded-degree graph that, on
// sufficiently dense admissibility graphs, is an expander w.h.p. For each
// input density the table reports the degree bounds of the extracted
// assignment graph and its second singular value σ₂ (of the normalized
// biadjacency matrix), next to two references: the Ramanujan value
// 2·√(d−1)/d (the best possible for a d-regular-ish graph) and the
// near-1 value a non-expanding (cycle-like) graph would have. Each
// (density, protocol) pair is one single-trial point whose historical
// seed carries no trial index.
func ExperimentExpanderExtraction(cfg SuiteConfig) (*Table, error) {
	spec := sweep.Spec{
		ID:    "E13",
		Title: "Expander extraction from the assignment subgraph (extension; Becchetti et al. footnote 5)",
		Columns: []string{"input_graph", "delta_in", "protocol", "d", "client_deg",
			"max_server_deg", "sigma2", "ramanujan_ref", "expander_like"},
	}

	n := 1 << 12
	if cfg.Quick {
		n = 1 << 10
	}
	// Becchetti et al.'s construction needs the request number d to be a
	// sufficiently large constant for the extracted subgraph to be
	// connected and expanding; d = 6 is comfortably in that regime while
	// d = 2..3 can leave tiny isolated components.
	d := 6
	densities := []struct {
		name  string
		delta int
		// pinCSR: same rationale as E10 — the dense Ω(n)-degree points
		// regenerate n/8 … n/2-wide Feistel rows at ~8× a CSR read per
		// round under `-topology implicit`, so they stay materialized.
		pinCSR bool
	}{
		{"log²n", regularDelta(n), false},
		{"n/8", n / 8, true},
		{"n/2", n / 2, true},
	}
	ramanujan := 2 * math.Sqrt(float64(d-1)) / float64(d)
	for _, dens := range densities {
		dens := dens
		topo := regularTopo(n, dens.delta, 13, uint64(dens.delta))
		topo.ForceCSR = dens.pinCSR
		for _, variant := range []core.Variant{core.SAER, core.RAES} {
			variant := variant
			spec.Points = append(spec.Points, sweep.Point{
				ID:       fmt.Sprintf("%s/%s", dens.name, variant),
				Topology: topo,
				Protocol: core.Config{Variant: variant, D: d, C: 4, TrackAssignments: true},
				Trials:   1,
				Seed: func(cfg SuiteConfig, _ int) uint64 {
					return cfg.TrialSeed(13, uint64(dens.delta), uint64(variant))
				},
				Render: func(cfg SuiteConfig, out *sweep.Outcome, t *Table) error {
					res := out.Results[0]
					if !res.Completed {
						return fmt.Errorf("experiments: E13 run on %s did not complete", dens.name)
					}
					sub, err := res.AssignmentGraph()
					if err != nil {
						return err
					}
					st := sub.Stats()
					sigma, err := spectral.SecondSingularValue(sub, spectral.Options{
						Seed:       cfg.TrialSeed(13, uint64(dens.delta), uint64(variant), 99),
						Iterations: 300,
					})
					if err != nil {
						return err
					}
					// "Expander-like" if σ₂ is clearly bounded away from 1 — we
					// use 0.98 as the operational cut-off between random-like
					// mixing and cycle-/cluster-like structure.
					t.AddRowf(dens.name, dens.delta, variant.String(), d,
						fmt.Sprintf("%d..%d", st.MinClientDegree, st.MaxClientDegree),
						st.MaxServerDegree, sigma, ramanujan, fmtBool(sigma < 0.98))
					return nil
				},
			})
		}
	}
	spec.Finalize = func(cfg SuiteConfig, outs []*sweep.Outcome, t *Table) error {
		t.AddNote("claim (inherited extension): the accepted-assignment subgraph has client degree exactly d, server degree ≤ c·d, and is an expander on dense inputs (Becchetti et al., SODA 2020)")
		t.AddNote("σ₂ is the second singular value of the normalized biadjacency matrix (1 = disconnected/cycle-like, %.3f = Ramanujan optimum for d=%d)", ramanujan, d)
		return nil
	}
	return sweep.Run(cfg, spec)
}

// assignmentDegreeCheck is used by tests: it confirms the structural
// degree guarantees of the extracted subgraph.
func assignmentDegreeCheck(sub *bipartite.Graph, d, capacity int) error {
	for v := 0; v < sub.NumClients(); v++ {
		if sub.ClientDegree(v) != d {
			return fmt.Errorf("client %d has degree %d, want %d", v, sub.ClientDegree(v), d)
		}
	}
	for u := 0; u < sub.NumServers(); u++ {
		if sub.ServerDegree(u) > capacity {
			return fmt.Errorf("server %d has degree %d above cap %d", u, sub.ServerDegree(u), capacity)
		}
	}
	return nil
}
