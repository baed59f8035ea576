package core

import (
	"fmt"
	"math"

	"repro/internal/telemetry"
)

// Config describes one protocol execution, and it is the only way to
// start one: Config.Run for a single run, Config.NewRunner for a Runner
// that is reused across trials, NewDriver for the transport-agnostic
// front end. It holds the protocol identity (Variant, D, C, MaxRounds,
// Seed — what Result echoes as Params), the performance knobs (Workers,
// Shards — results are bit-for-bit independent of both), and the
// optional diagnostics and inputs. Validate checks everything that does
// not depend on the topology, in one place.
//
// The zero value of every knob means "pick the default": Workers 0 is
// GOMAXPROCS and Shards 0 defers to the autotuner. All tracking is off
// by default because the neighborhood statistics cost O(|E|) per round.
type Config struct {
	// Variant selects the threshold protocol (SAER or RAES).
	Variant Variant
	// D is the request number d: the number of balls each client must
	// place. The paper treats it as an arbitrary constant > 1, but any
	// positive value is accepted.
	D int
	// C is the threshold constant c. Every server accepts at most
	// ⌊C·D⌋ balls, which must lie in [1, MaxInt32]. The analysis requires
	// C ≥ max(32·ρ, 288/(η·d)); in practice much smaller constants already
	// give fast termination (experiment E9 quantifies this).
	C float64
	// MaxRounds caps the run. Zero selects DefaultMaxRounds(n). If the
	// cap is reached before every ball is placed, Result.Completed is
	// false.
	MaxRounds int
	// Seed determines every random choice of the run.
	Seed uint64

	// Workers is the number of goroutines per phase; zero selects
	// GOMAXPROCS. The result does not depend on this value.
	Workers int
	// Shards is the target server-shard count of the round loop: phase 2
	// decides each shard's servers on the goroutine that owns the shard,
	// after a routed round's phase 1 sent each ball's destination to the
	// lane of the shard that owns it, or a counted round's counted it
	// into the worker's byte tally. Zero selects the autotuned count
	// (AutotuneShards). A one-worker run on one shard counts every round.
	// Like Workers this is a pure performance knob: results are
	// bit-for-bit independent of it (the equivalence tests sweep
	// {0, 1, 2, 3, 8}).
	Shards int

	// TrackRounds records a RoundStats entry per round.
	TrackRounds bool
	// TrackNeighborhoods additionally computes S_t, r_t and K_t per round
	// (implies TrackRounds).
	TrackNeighborhoods bool
	// TrackLoads stores the final per-server load vector in the result.
	TrackLoads bool
	// TrackAssignments records, for every client, which server accepted
	// each of its balls (Result.Assignments). This is what a real client
	// application needs — the actual request→server mapping — and it also
	// exposes the bounded-degree assignment subgraph that Becchetti et
	// al.'s expander construction is built from.
	TrackAssignments bool
	// InitialLoads, when non-nil, pre-loads every server with the given
	// number of already-accepted balls before the first round. This models
	// the dynamic/online scenario of the paper's future-work section, where
	// new client batches arrive while servers still carry load from earlier
	// batches. The slice length must equal the number of servers and no
	// entry may exceed MaxInt32 (see CheckInitialLoads); a negative entry
	// counts as zero, and a server whose initial load already reaches the
	// capacity starts burned (SAER) or permanently saturated (RAES).
	InitialLoads []int
	// RequestCounts, when non-nil, gives each client its own number of
	// balls (the paper's general "at most d" case). Entries must be in
	// [0, D]; the slice length must equal the number of clients. When nil,
	// every client has exactly D balls.
	RequestCounts []int

	// Telemetry, when non-nil, receives live counters and per-phase
	// latency histograms from the run (rounds/requests totals, phase
	// spans, steal counters; see internal/telemetry).
	// Pure observation: results are bit-for-bit identical whether it is
	// set or nil — the telemetry equivalence suite pins this — and the
	// nil path costs one pointer test per phase per round.
	Telemetry *telemetry.Registry
}

// Params returns the protocol identity of the configuration, the part a
// Result echoes.
func (c Config) Params() Params {
	return Params{D: c.D, C: c.C, MaxRounds: c.MaxRounds, Seed: c.Seed}
}

// Validate checks everything that can be checked without a topology:
// the protocol parameters and the knob ranges. The capacity must fit
// the int32 that every server half holds it in. The topology-dependent
// checks (InitialLoads/RequestCounts lengths) run in NewRunner and
// NewDriver, which know the instance shape.
func (c Config) Validate() error {
	if c.Variant != SAER && c.Variant != RAES {
		return fmt.Errorf("core: unknown protocol variant %d", int(c.Variant))
	}
	if c.D <= 0 {
		return fmt.Errorf("core: request number D must be positive, got %d", c.D)
	}
	// NaN fails every comparison, so it is caught here too.
	if !(c.C > 0) || math.IsInf(c.C, 1) {
		return fmt.Errorf("core: threshold constant C must be positive and finite, got %v", c.C)
	}
	// Compare before converting: Go's float-to-int conversion of an
	// out-of-range value is platform-dependent.
	if capacity := math.Floor(c.C * float64(c.D)); capacity < 1 || capacity > math.MaxInt32 {
		return fmt.Errorf("core: capacity floor(C*D) = %.0f is outside [1, %d]", capacity, math.MaxInt32)
	}
	if c.MaxRounds < 0 {
		return fmt.Errorf("core: MaxRounds must be non-negative, got %d", c.MaxRounds)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be non-negative, got %d", c.Workers)
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: Shards must be non-negative, got %d", c.Shards)
	}
	return nil
}

// CheckInitialLoads checks a run's initial server loads against m
// servers: nil, or one entry per server. Every server half holds a load
// as int32, so an entry above MaxInt32 is an error that names the server;
// converting it would wrap silently. Every way to start or reset a run
// applies this one check.
func CheckInitialLoads(initialLoads []int, m int) error {
	if initialLoads == nil {
		return nil
	}
	if len(initialLoads) != m {
		return fmt.Errorf("core: InitialLoads has %d entries for %d servers", len(initialLoads), m)
	}
	for u, l := range initialLoads {
		if l > math.MaxInt32 {
			return fmt.Errorf("core: initial load %d of server %d exceeds %d", l, u, math.MaxInt32)
		}
	}
	return nil
}
