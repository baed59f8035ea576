package experiments

import (
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// ExperimentAliveDecay (E11) traces the mechanics behind the Θ(n) work
// bound (Section 3.2): while at least n·d/log n balls are alive, the
// number of alive balls shrinks by at least a factor 4/5 per round,
// w.h.p. The table lists, per round, the mean number of alive balls over
// the trials, the measured per-round decay ratio and the 4/5 reference,
// until the series drops below the threshold. The whole experiment is a
// single sweep point whose rendering fans the per-round series out into
// rows.
func ExperimentAliveDecay(cfg SuiteConfig) (*Table, error) {
	spec := sweep.Spec{
		ID:    "E11",
		Title: "Per-round decay of alive balls (SAER, Section 3.2 work analysis)",
		Columns: []string{"round", "alive_mean", "decay_ratio", "bound_ratio",
			"below_threshold", "respects_bound"},
	}

	n := 1 << 13
	if cfg.Quick {
		n = 1 << 11
	}
	d := 2
	threshold := float64(n*d) / math.Log2(float64(n))
	spec.Points = append(spec.Points, sweep.Point{
		ID:       fmt.Sprintf("n=%d", n),
		Topology: regularTopo(n, regularDelta(n), 11, uint64(n)),
		// c = 2 keeps enough servers at the threshold that the decay spans
		// several rounds (with a large c almost every ball lands in round 1
		// and there is nothing to plot).
		Protocol: core.Config{Variant: core.SAER, D: d, C: 2, TrackRounds: true},
		SeedKey:  []uint64{11, uint64(n)},
		Render: func(cfg SuiteConfig, out *sweep.Outcome, t *Table) error {
			// Average the alive-ball series across trials round by round.
			results := out.Results
			maxRounds := 0
			for _, r := range results {
				if len(r.PerRound) > maxRounds {
					maxRounds = len(r.PerRound)
				}
			}
			prevMean := math.NaN()
			violations := 0
			for round := 0; round < maxRounds; round++ {
				var alive []float64
				for _, r := range results {
					if round < len(r.PerRound) {
						alive = append(alive, float64(r.PerRound[round].AliveBalls))
					} else {
						alive = append(alive, 0)
					}
				}
				mean := stats.Mean(alive)
				ratio := math.NaN()
				respects := true
				if !math.IsNaN(prevMean) && prevMean > 0 {
					ratio = mean / prevMean
					if prevMean > threshold && ratio > analysis.WorkDecayFactor {
						respects = false
						violations++
					}
				}
				ratioCell := "-"
				if !math.IsNaN(ratio) {
					ratioCell = trimFloat(ratio)
				}
				t.AddRowf(round+1, mean, ratioCell, analysis.WorkDecayFactor,
					fmtBool(mean <= threshold), fmtBool(respects))
				prevMean = mean
			}
			t.AddNote("threshold n·d/log₂n = %.0f; the 4/5 bound only applies above it", threshold)
			if violations == 0 {
				t.AddNote("measured decay respects the 4/5 bound in every applicable round")
			} else {
				t.AddNote("measured decay violates the 4/5 bound in %d round(s) — expected to be rare (the bound holds w.h.p., not surely)", violations)
			}
			return nil
		},
	})
	return sweep.Run(cfg, spec)
}

func trimFloat(v float64) string {
	return fmt.Sprintf("%.3f", v)
}
