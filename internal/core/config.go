package core

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

// Config is the single validated configuration surface of a protocol
// execution: the protocol identity (Variant, D, C, MaxRounds, Seed), the
// performance knobs (Workers, Shards — results are bit-for-bit
// independent of both), and the optional diagnostics. It collapses the
// historical (Variant, Params, Options) triple that every caller used to
// assemble field by field; the simulator CLI, the sweep engine and the wire
// binaries all build a Config and go through its constructor methods, so
// knob validation and normalization happen in exactly one place. Params
// and Options remain as the internal split (and in Result, which echoes
// them), produced by the Params/Options accessors.
//
// The zero value of every knob means "pick the default": Workers 0 is
// GOMAXPROCS and Shards 0 defers to the autotuner. ResolveKnobs exposes
// the normalization itself for equivalence tests and diagnostics.
type Config struct {
	// Variant selects the threshold protocol (SAER or RAES).
	Variant Variant
	// D is the request number d: the number of balls each client places.
	D int
	// C is the threshold constant c; the per-server capacity is ⌊C·D⌋.
	C float64
	// MaxRounds caps the run; zero selects DefaultMaxRounds(n).
	MaxRounds int
	// Seed determines every random choice of the run.
	Seed uint64

	// Workers is the number of goroutines per phase (0 = GOMAXPROCS).
	Workers int
	// Shards is the target server-shard count of the routed round loop
	// (0 = autotuned; see Options.Shards).
	Shards int

	// TrackRounds records a RoundStats entry per round.
	TrackRounds bool
	// TrackNeighborhoods additionally computes S_t, r_t and K_t per round
	// (implies TrackRounds).
	TrackNeighborhoods bool
	// TrackLoads stores the final per-server load vector in the result.
	TrackLoads bool
	// TrackAssignments records which server accepted each client ball.
	TrackAssignments bool
	// InitialLoads pre-loads the servers (dynamic scenarios); length must
	// equal the server count when non-nil.
	InitialLoads []int
	// RequestCounts gives each client its own ball count in [0, D];
	// length must equal the client count when non-nil.
	RequestCounts []int

	// Telemetry, when non-nil, receives live run counters and phase
	// histograms (see Options.Telemetry and internal/telemetry). Results
	// are bit-for-bit independent of it.
	Telemetry *telemetry.Registry
}

// NewConfig returns a Config for one protocol execution with every
// performance knob at its self-tuning default.
func NewConfig(variant Variant, d int, c float64, seed uint64) Config {
	return Config{Variant: variant, D: d, C: c, Seed: seed}
}

// ConfigFrom assembles a Config from the historical
// (variant, params, options) triple: the migration bridge for callers
// whose declarative surface still carries the split types (the sweep
// engine's Point grid). New code should build a Config directly.
func ConfigFrom(variant Variant, p Params, o Options) Config {
	return Config{
		Variant:            variant,
		D:                  p.D,
		C:                  p.C,
		MaxRounds:          p.MaxRounds,
		Seed:               p.Seed,
		Workers:            p.Workers,
		Shards:             o.Shards,
		TrackRounds:        o.TrackRounds,
		TrackNeighborhoods: o.TrackNeighborhoods,
		TrackLoads:         o.TrackLoads,
		TrackAssignments:   o.TrackAssignments,
		InitialLoads:       o.InitialLoads,
		RequestCounts:      o.RequestCounts,
		Telemetry:          o.Telemetry,
	}
}

// Params returns the run-parameter view of the configuration.
func (c Config) Params() Params {
	return Params{D: c.D, C: c.C, MaxRounds: c.MaxRounds, Workers: c.Workers, Seed: c.Seed}
}

// Options returns the diagnostics/performance-knob view of the
// configuration.
func (c Config) Options() Options {
	return Options{
		Shards:             c.Shards,
		TrackRounds:        c.TrackRounds,
		TrackNeighborhoods: c.TrackNeighborhoods,
		TrackLoads:         c.TrackLoads,
		TrackAssignments:   c.TrackAssignments,
		InitialLoads:       c.InitialLoads,
		RequestCounts:      c.RequestCounts,
		Telemetry:          c.Telemetry,
	}
}

// Validate checks everything that can be checked without a topology:
// the protocol parameters and the knob ranges. The topology-dependent
// checks (InitialLoads/RequestCounts lengths) run in NewRunner and
// NewDriver, which know the instance shape.
func (c Config) Validate() error {
	if c.Variant != SAER && c.Variant != RAES {
		return fmt.Errorf("core: unknown protocol variant %d", int(c.Variant))
	}
	if err := c.Params().Validate(); err != nil {
		return err
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: Shards must be non-negative, got %d", c.Shards)
	}
	return nil
}

// NewRunner validates the configuration against topo and allocates the
// run state.
func (c Config) NewRunner(topo bipartite.Topology) (*Runner, error) {
	return NewRunner(topo, c.Variant, c.Params(), c.Options())
}

// Run executes one full protocol run of the configuration on topo.
func (c Config) Run(topo bipartite.Topology) (*Result, error) {
	r, err := c.NewRunner(topo)
	if err != nil {
		return nil, err
	}
	return r.Run(), nil
}

// ResolvedKnobs is the concrete performance-knob assignment the
// normalization step produces for one instance shape: what a Runner
// built from the same configuration actually runs with. It exists so
// equivalence tests can pin the resolution without reaching into Runner
// internals, and so diagnostics can report the effective knobs.
type ResolvedKnobs struct {
	// Workers is the effective worker count (GOMAXPROCS-resolved).
	Workers int
	// Shards is the target shard count handed to the router, which may
	// still collapse it on tiny instances. A one-worker run whose router
	// ends up with one shard takes the one-lane path.
	Shards int
}

// resolveKnobs is the single knob-normalization step shared by the
// round loop and Config.ResolveKnobs: an explicit shard count wins, and
// the autotuner fills an unset one.
func resolveKnobs(c Config, n, m, workers int) ResolvedKnobs {
	k := ResolvedKnobs{Workers: workers, Shards: c.Shards}
	if k.Shards == 0 {
		k.Shards = AutotuneShards(n, m, workers, engine.DetectCache())
	}
	return k
}

// ResolveKnobs reports the effective performance knobs the configuration
// resolves to on topo, without allocating any run state.
func (c Config) ResolveKnobs(topo bipartite.Topology) ResolvedKnobs {
	workers := engine.NewPool(c.Workers).Workers()
	return resolveKnobs(c, topo.NumClients(), topo.NumServers(), workers)
}
