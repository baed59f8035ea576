package core

import (
	"repro/internal/bipartite"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

// runTel bundles the instruments the round loop touches: one counter
// bump and four phase spans per round, resolved once at construction so
// the loop never goes through the registry's mutex. A nil *runTel is
// the disabled state; its accessor methods return nil instruments, so
// every call site is a single nil test and StartSpan(nil) never reads
// the clock. Runner and Driver share the instrument names — in a
// process running both (the wire client's verify mode), they fold into
// the same series, which is what a "requests issued by this process"
// counter should mean.
type runTel struct {
	rounds   *telemetry.Counter
	requests *telemetry.Counter
	accepted *telemetry.Counter

	// Phase histograms, labeled by the round-loop phase: draw (client
	// draws + routing), fold (the Driver's lane fold and batch assembly;
	// the Runner folds each shard inside decide), decide (server
	// accept/burn decisions), update (client ball retirement).
	draw   *telemetry.Histogram
	fold   *telemetry.Histogram
	decide *telemetry.Histogram
	update *telemetry.Histogram

	rowCache *bipartite.RowCacheMetrics
}

func newRunTel(reg *telemetry.Registry) *runTel {
	if reg == nil {
		return nil
	}
	return &runTel{
		rounds:   reg.Counter("saer_rounds_total"),
		requests: reg.Counter("saer_requests_total"),
		accepted: reg.Counter("saer_accepted_total"),
		draw:     reg.Histogram(`saer_phase_seconds{phase="draw"}`),
		fold:     reg.Histogram(`saer_phase_seconds{phase="fold"}`),
		decide:   reg.Histogram(`saer_phase_seconds{phase="decide"}`),
		update:   reg.Histogram(`saer_phase_seconds{phase="update"}`),
		rowCache: &bipartite.RowCacheMetrics{
			Hits:      reg.Counter("saer_rowcache_hits_total"),
			Misses:    reg.Counter("saer_rowcache_misses_total"),
			Evictions: reg.Counter("saer_rowcache_evictions_total"),
		},
	}
}

// instrumentPool wires the steal-scheduler counters of pool to reg.
func instrumentPool(reg *telemetry.Registry, pool *engine.Pool) {
	if reg == nil {
		return
	}
	pool.Steals = reg.Counter("saer_steals_total")
	pool.StealFails = reg.Counter("saer_steal_failures_total")
}

// The nil-safe accessors the round loops call unconditionally.

func (t *runTel) drawHist() *telemetry.Histogram {
	if t == nil {
		return nil
	}
	return t.draw
}

func (t *runTel) foldHist() *telemetry.Histogram {
	if t == nil {
		return nil
	}
	return t.fold
}

func (t *runTel) decideHist() *telemetry.Histogram {
	if t == nil {
		return nil
	}
	return t.decide
}

func (t *runTel) updateHist() *telemetry.Histogram {
	if t == nil {
		return nil
	}
	return t.update
}

// countRound records one finished round's totals.
func (t *runTel) countRound(sent, accepted int64) {
	if t == nil {
		return
	}
	t.rounds.Add(0, 1)
	t.requests.Add(0, sent)
	t.accepted.Add(0, accepted)
}
