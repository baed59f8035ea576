package cli

import (
	"flag"

	"repro/internal/core"
)

// RunFlags bundles the protocol and performance flags every run-style
// binary shares (saer-sim, the wire server/client, and any future
// driver): one Register call defines the flags, one Config call parses
// the protocol name and produces the validated core.Config, so knob
// validation lives in one place, core.Config.Validate.
type RunFlags struct {
	// Protocol is the variant name (saer or raes).
	Protocol string
	// D, C, Seed and MaxRounds are the protocol identity.
	D         int
	C         float64
	Seed      uint64
	MaxRounds int
	// Workers and Shards are the performance knobs; results are
	// bit-for-bit independent of both.
	Workers int
	Shards  int
}

// Register defines the shared run flags on fs, writing into f.
func (f *RunFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Protocol, "protocol", "saer", "protocol: saer or raes")
	fs.IntVar(&f.D, "d", 2, "requests per client")
	fs.Float64Var(&f.C, "c", 4, "threshold constant c (server capacity = floor(c*d)); 0 = the paper's prescribed value")
	fs.Uint64Var(&f.Seed, "seed", 1, "random seed (graph seed = seed, protocol seed = seed+1)")
	fs.IntVar(&f.MaxRounds, "max-rounds", 0, "round cap (0 = default)")
	fs.IntVar(&f.Workers, "workers", 0, "worker goroutines per phase (0 = GOMAXPROCS)")
	fs.IntVar(&f.Shards, "shards", 0, "server shards of the routed round loop (0 = autotuned from n, m, workers and the cache; 1 = one shard; identical results, different locality)")
}

// Config parses the protocol name and returns the validated core.Config.
// The protocol seed is Seed+1, matching the historical saer-sim
// convention (graph seed = Seed). Callers that derive C from the graph
// may pass C = 0 here and fill cfg.C before use; validation then runs in
// core.Config.NewRunner.
func (f *RunFlags) Config() (core.Config, error) {
	variant, err := ParseProtocol(f.Protocol)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Variant:   variant,
		D:         f.D,
		C:         f.C,
		Seed:      f.Seed + 1,
		MaxRounds: f.MaxRounds,
		Workers:   f.Workers,
		Shards:    f.Shards,
	}
	if cfg.C > 0 {
		if err := cfg.Validate(); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}
