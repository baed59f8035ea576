package sweep

import (
	"fmt"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/telemetry"
)

// Family enumerates the graph families the engine can build
// declaratively. Families with a regenerative sampler (regular,
// Erdős–Rényi, trust-subset, almost-regular) are built implicit or
// materialized according to Config.Topology and the point size; the
// others always materialize.
type Family int

const (
	// FamNone builds no topology: the zero Topo value, for points whose
	// custom Run constructs its own graphs (e.g. the dynamic-arrival
	// scenario's per-batch re-randomization).
	FamNone Family = iota
	// FamRegular is the random Δ-regular permutation model: the union of
	// Delta random perfect matchings (gen.Regular / gen.RegularImplicit).
	FamRegular
	// FamErdosRenyi is bipartite G(n, m, p) with the ensure-clients
	// fallback edge (gen.ErdosRenyi / gen.ErdosRenyiImplicit).
	FamErdosRenyi
	// FamTrustSubset samples Delta trusted servers per client without
	// replacement (gen.TrustSubset / gen.TrustSubsetImplicit).
	FamTrustSubset
	// FamAlmostRegular is the paper's heavy-client / light-server example
	// (gen.AlmostRegular / gen.AlmostRegularImplicit), parameterized by
	// Topo.Almost.
	FamAlmostRegular
	// FamComplete is the complete bipartite graph (no randomness, no
	// implicit twin — it is its own O(1) description but the protocols
	// read it through CSR for speed).
	FamComplete
	// FamCustom delegates to Topo.Build; Topo.Key identifies the result
	// for caching.
	FamCustom
)

// Topo declares a point's topology. The engine decides the
// representation: families with an implicit sampler regenerate
// neighborhoods when Config.UseImplicit(N) says so (or always
// materialize when ForceCSR is set — for experiments that need the
// *bipartite.Graph API, e.g. measured degree statistics or the baseline
// algorithms).
type Topo struct {
	Family Family
	// N and M are the client and server counts; M == 0 means M = N.
	N, M int
	// Delta is the per-client degree (regular, trust-subset).
	Delta int
	// P is the edge probability (Erdős–Rényi).
	P float64
	// Almost parameterizes FamAlmostRegular.
	Almost gen.AlmostRegularConfig
	// SeedKey derives the graph seed: cfg.TrialSeed(SeedKey...).
	SeedKey []uint64
	// ForceCSR pins the materialized representation regardless of the
	// configured topology mode.
	ForceCSR bool
	// Key identifies a FamCustom topology for caching; Build constructs
	// it. Build receives the seed derived from SeedKey.
	Key   string
	Build func(cfg Config, seed uint64) (bipartite.Topology, error)
}

// servers returns the explicit server count.
func (t Topo) servers() int {
	if t.M > 0 {
		return t.M
	}
	return t.N
}

// cacheKey identifies the built topology so consecutive points sharing a
// declaration reuse one graph. An empty key disables reuse.
func (t Topo) cacheKey(cfg Config) string {
	if t.Family == FamNone {
		return ""
	}
	if t.Family == FamCustom {
		if t.Key == "" {
			return ""
		}
		return fmt.Sprintf("custom|%s|%v", t.Key, t.SeedKey)
	}
	return fmt.Sprintf("%d|%d|%d|%d|%g|%+v|%v|%v|%v",
		t.Family, t.N, t.servers(), t.Delta, t.P, t.Almost, t.SeedKey, t.ForceCSR, cfg.UseImplicit(t.N))
}

// build constructs the declared topology in the representation the
// configuration selects.
func (t Topo) build(cfg Config) (bipartite.Topology, error) {
	if t.Family == FamNone {
		return nil, nil
	}
	seed := cfg.TrialSeed(t.SeedKey...)
	if t.Family == FamCustom {
		if t.Build == nil {
			return nil, fmt.Errorf("sweep: custom topology %q has no Build function", t.Key)
		}
		return t.Build(cfg, seed)
	}
	if t.N <= 0 {
		return nil, fmt.Errorf("sweep: topology requires N > 0, got %d", t.N)
	}
	implicit := !t.ForceCSR && cfg.UseImplicit(t.N)
	topo, err := t.buildFamily(seed, implicit)
	if err != nil {
		return nil, err
	}
	// implicit-csr materializes the implicit sampler's exact edge
	// multiset: runs on the two representations are bit-for-bit
	// identical, which is what the experiment-level equivalence tests
	// compare.
	if implicit && cfg.Topology == "implicit-csr" {
		return bipartite.Materialize(topo)
	}
	return topo, nil
}

// buildFamily constructs the declared family in the requested
// representation.
func (t Topo) buildFamily(seed uint64, implicit bool) (bipartite.Topology, error) {
	m := t.servers()
	switch t.Family {
	case FamRegular:
		if implicit {
			return gen.RegularImplicit(t.N, t.Delta, seed)
		}
		return gen.Regular(t.N, t.Delta, rng.New(seed))
	case FamErdosRenyi:
		if implicit {
			return gen.ErdosRenyiImplicit(t.N, m, t.P, true, seed)
		}
		return gen.ErdosRenyi(t.N, m, t.P, true, rng.New(seed))
	case FamTrustSubset:
		if implicit {
			return gen.TrustSubsetImplicit(t.N, m, t.Delta, seed)
		}
		return gen.TrustSubset(t.N, m, t.Delta, rng.New(seed))
	case FamAlmostRegular:
		if implicit {
			return gen.AlmostRegularImplicit(t.Almost, seed)
		}
		return gen.AlmostRegular(t.Almost, rng.New(seed))
	case FamComplete:
		return gen.Complete(t.N, m)
	default:
		return nil, fmt.Errorf("sweep: unknown topology family %d", int(t.Family))
	}
}

// Point is one grid point of a sweep: a topology, a protocol
// configuration, and the seeds of its Monte-Carlo trials. The engine
// executes each point's trials on the pooled-Runner trial executor (or
// the point's custom Run function) and hands the outcome to Render.
type Point struct {
	// ID labels the point in the JSON record stream, e.g. "n=1024" or
	// "trust-subset/d=2/c=4".
	ID string
	// Topology declares the graph; consecutive points with identical
	// declarations share one built topology.
	Topology Topo
	// Protocol configures the protocol runs. The engine overrides its
	// Seed per trial and its Workers and Telemetry per point.
	Protocol core.Config
	// ProtocolFrom, when non-nil, derives the protocol configuration from
	// the built topology (replacing Protocol) — for experiments whose
	// threshold constant depends on measured graph statistics.
	ProtocolFrom func(cfg Config, g bipartite.Topology) (core.Config, error)
	// SeedKey derives trial t's seed as cfg.TrialSeed(SeedKey..., t);
	// Seed, when non-nil, overrides that derivation (used by the few
	// points whose historical seeds do not append the trial index).
	SeedKey []uint64
	Seed    func(cfg Config, trial int) uint64
	// Trials overrides the configured trial count (0 = cfg.TrialCount()).
	Trials int
	// Run, when non-nil, replaces the pooled protocol execution: it is
	// called once per trial (concurrently, on the trial pool) and its
	// results land in Outcome.Custom. Points with Run never build Runners
	// (the topology is still built and passed in).
	Run func(cfg Config, g bipartite.Topology, trial int, seed uint64) (any, error)
	// Render appends the point's table rows (typically one). It runs
	// sequentially in point order after the point's trials complete.
	Render func(cfg Config, out *Outcome, t *Table) error
}

// trialSeed returns trial t's seed under the point's derivation.
func (p *Point) trialSeed(cfg Config, trial int) uint64 {
	if p.Seed != nil {
		return p.Seed(cfg, trial)
	}
	key := make([]uint64, 0, len(p.SeedKey)+1)
	key = append(key, p.SeedKey...)
	key = append(key, uint64(trial))
	return cfg.TrialSeed(key...)
}

// Outcome is what a point's execution produced.
type Outcome struct {
	Point *Point
	// Topology is the built graph the trials ran on. It is only valid
	// inside the point's Render — the engine releases it afterwards so a
	// sweep never pins more than the current (possibly shared) graph.
	Topology bipartite.Topology
	// Results holds the protocol results in trial order (nil for points
	// with a custom Run).
	Results []*core.Result
	// Custom holds the custom Run outputs in trial order (nil otherwise).
	Custom []any
}

// Spec is the declarative description of one experiment: its table
// identity, its point grid, and an optional cross-point Finalize (fits,
// verdict notes).
type Spec struct {
	ID      string
	Title   string
	Columns []string
	Points  []Point
	// Finalize runs after every point rendered; outs holds the outcomes
	// in point order.
	Finalize func(cfg Config, outs []*Outcome, t *Table) error
}

// Run executes the spec: for each point it builds (or reuses) the
// topology, runs the trials on the pooled executor, streams trial
// records, renders the point's rows, and finally calls Finalize. The
// returned table is identical for every Config.TrialParallelism — the
// engine inherits the determinism contract of runPooledTrials.
func Run(cfg Config, spec Spec) (*Table, error) {
	if cfg.Progress != nil && cfg.Telemetry == nil {
		// The progress reporter reads the trial-completion counter, so a
		// progress-only run still needs a registry to bump.
		cfg.Telemetry = telemetry.NewRegistry()
	}
	t := NewTable(spec.ID, spec.Title, spec.Columns...)
	cfg.Records.TableHeader(t.ID, t.Title, t.Columns)
	outs := make([]*Outcome, 0, len(spec.Points))
	var (
		cached    bipartite.Topology
		cachedKey string
	)
	for i := range spec.Points {
		p := &spec.Points[i]
		key := p.Topology.cacheKey(cfg)
		g := cached
		if key == "" || key != cachedKey {
			var err error
			g, err = p.Topology.build(cfg)
			if err != nil {
				return nil, fmt.Errorf("sweep: %s point %q: building topology: %w", spec.ID, p.ID, err)
			}
			cached, cachedKey = g, key
		}
		out, err := runPoint(cfg, spec.ID, p, g)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		if p.Render != nil {
			from := len(t.Rows)
			if err := p.Render(cfg, out, t); err != nil {
				return nil, fmt.Errorf("sweep: %s point %q: %w", spec.ID, p.ID, err)
			}
			tableRows(cfg.Records, t, p.ID, from)
		}
		// Release the built graph: outs lives until Finalize, and pinning
		// every point's topology (E8's six materialized almost-regular
		// graphs, E1's sub-threshold CSR points) would hold the whole
		// sweep's graphs at once. Renders that need the graph have already
		// run; the cache still carries it to the next point if shared.
		out.Topology = nil
	}
	if spec.Finalize != nil {
		rendered := len(t.Rows)
		if err := spec.Finalize(cfg, outs, t); err != nil {
			return nil, fmt.Errorf("sweep: %s: finalize: %w", spec.ID, err)
		}
		// Rows appended by Finalize (cross-point summaries) carry no point
		// attribution but must still reach the record stream.
		tableRows(cfg.Records, t, "", rendered)
	}
	tableNotes(cfg.Records, t, 0)
	if cfg.Records != nil && cfg.Records.Err() != nil {
		return nil, cfg.Records.Err()
	}
	return t, nil
}

// runPoint executes one point's trials.
func runPoint(cfg Config, expID string, p *Point, g bipartite.Topology) (*Outcome, error) {
	trials := p.Trials
	if trials <= 0 {
		trials = cfg.TrialCount()
	}
	out := &Outcome{Point: p, Topology: g}
	seed := func(trial int) uint64 { return p.trialSeed(cfg, trial) }
	if cfg.Progress != nil {
		rep := telemetry.NewReporter(cfg.Progress, fmt.Sprintf("%s %s", expID, p.ID),
			cfg.trialCounter(), int64(trials), time.Second)
		defer rep.Stop()
	}
	if p.Run != nil {
		custom := make([]any, trials)
		err := forEachTrial(cfg, trials, g, func(_, trial int) error {
			res, err := p.Run(cfg, g, trial, seed(trial))
			if err != nil {
				return fmt.Errorf("sweep: %s point %q trial %d: %w", expID, p.ID, trial, err)
			}
			custom[trial] = res
			return nil
		})
		if err != nil {
			return nil, err
		}
		out.Custom = custom
		return out, nil
	}
	if g == nil {
		return nil, fmt.Errorf("sweep: %s point %q: protocol trials need a topology (Family is FamNone)", expID, p.ID)
	}
	proto := p.Protocol
	if p.ProtocolFrom != nil {
		var err error
		proto, err = p.ProtocolFrom(cfg, g)
		if err != nil {
			return nil, fmt.Errorf("sweep: %s point %q: deriving the protocol: %w", expID, p.ID, err)
		}
	}
	results, err := runPooledTrials(cfg, trials, g, proto, seed)
	if err != nil {
		return nil, fmt.Errorf("sweep: %s point %q: %w", expID, p.ID, err)
	}
	out.Results = results
	for i, r := range results {
		cfg.Records.Trial(expID, p.ID, i, seed(i), r)
		if len(r.PerRound) > 0 {
			cfg.Records.RoundSeries(expID, p.ID, i, -1, r.PerRound)
		}
	}
	return out, nil
}
