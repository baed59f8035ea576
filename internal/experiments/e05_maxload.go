package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// ExperimentMaxLoad (E5) verifies the protocol's deterministic load
// invariant across graph families and parameter choices: a server never
// accepts more than ⌊c·d⌋ balls, whatever happens. The table lists, per
// (family, d, c), the maximum load ever observed over all trials next to
// the cap.
func ExperimentMaxLoad(cfg SuiteConfig) (*Table, error) {
	spec := sweep.Spec{
		ID:    "E5",
		Title: "Maximum server load vs the c·d cap (protocol invariant)",
		Columns: []string{"graph", "n", "d", "c", "cap", "trials",
			"max_load_observed", "within_cap", "success"},
	}

	n := sizes(cfg)[len(sizes(cfg))-1] / 2
	if cfg.Quick {
		n = 512
	}
	// Every family has a regenerative sampler now — the Feistel partial
	// shuffle gave trust-subset and the heavy almost-regular clients O(k)
	// row regeneration — so in full mode all four run at the lifted size
	// on the implicit topology (forcing "csr" keeps the classic size,
	// which the table's n column records).
	nLarge := n
	if !cfg.Quick && cfg.UseImplicit(1<<18) {
		nLarge = 1 << 18
	}
	families := []struct {
		name string
		topo sweep.Topo
	}{
		{"regular", regularTopo(nLarge, regularDelta(nLarge), 5, 0)},
		{"trust-subset", sweep.Topo{
			Family: sweep.FamTrustSubset, N: nLarge, Delta: regularDelta(nLarge), SeedKey: []uint64{5, 1}}},
		{"erdos-renyi", sweep.Topo{
			Family: sweep.FamErdosRenyi, N: nLarge,
			P: float64(regularDelta(nLarge)) / float64(nLarge), SeedKey: []uint64{5, 2}}},
		{"almost-regular", sweep.Topo{
			Family: sweep.FamAlmostRegular, N: nLarge,
			Almost: gen.DefaultAlmostRegularConfig(nLarge), SeedKey: []uint64{5, 3}}},
	}

	paramGrid := []struct {
		d int
		c float64
	}{
		{1, 4}, {2, 4}, {4, 2}, {2, 1.5},
	}

	for _, fam := range families {
		fam := fam
		for _, pc := range paramGrid {
			pc := pc
			proto := core.Config{Variant: core.SAER, D: pc.d, C: pc.c}
			spec.Points = append(spec.Points, sweep.Point{
				ID:       fmt.Sprintf("%s/d=%d/c=%g", fam.name, pc.d, pc.c),
				Topology: fam.topo,
				Protocol: proto,
				SeedKey:  []uint64{5, fam.topo.SeedKey[1], uint64(pc.d)},
				Render: func(cfg SuiteConfig, out *sweep.Outcome, t *Table) error {
					agg := metrics.Aggregate(out.Results)
					capacity := proto.Params().Capacity()
					within := agg.MaxLoad.Max <= float64(capacity)
					t.AddRowf(fam.name, nLarge, pc.d, pc.c, capacity, agg.Trials,
						agg.MaxLoad.Max, fmtBool(within), fmtRate(agg.SuccessRate))
					return nil
				},
			})
		}
	}
	spec.Finalize = func(cfg SuiteConfig, outs []*sweep.Outcome, t *Table) error {
		t.AddNote("claim: if the protocol terminates, every server load is at most c·d (remark (i), Section 2.2); the cap holds even for runs that do not terminate")
		return nil
	}
	return sweep.Run(cfg, spec)
}
