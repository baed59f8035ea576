package core

import (
	"errors"
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/telemetry"
)

// RoundStats records the observable quantities of a single round. The
// per-round series are what the analysis in Section 3 of the paper reasons
// about: the number of alive balls (work decay, §3.2), the maximum number
// of requests landing in any client's server-neighborhood r_t
// (Definition 5) and the maximum fraction of burned servers in any
// client's neighborhood S_t (Definition 3).
type RoundStats struct {
	// Round is the 1-based round index.
	Round int
	// AliveBalls is the number of unassigned balls at the start of the
	// round.
	AliveBalls int
	// RequestsSent is the number of ball requests submitted in phase 1.
	RequestsSent int
	// RequestsAccepted is the number of those requests accepted in phase 2.
	RequestsAccepted int
	// NewlyBurned is the number of servers that became burned this round
	// (SAER). For RAES it counts servers whose cumulative received total
	// first exceeded the capacity this round — the diagnostic analogue used
	// by Corollary 2's domination argument.
	NewlyBurned int
	// BurnedTotal is the cumulative number of burned servers after the
	// round (same caveat for RAES as NewlyBurned).
	BurnedTotal int
	// SaturatedThisRound is the number of servers that rejected this
	// round's requests while not being burned (RAES saturation events; for
	// SAER it is always equal to NewlyBurned).
	SaturatedThisRound int
	// MaxNeighborhoodBurnedFrac is S_t = max_v S_t(v): the maximum over
	// clients of the fraction of burned servers in the client's
	// neighborhood. Populated only when Options.TrackNeighborhoods is set.
	MaxNeighborhoodBurnedFrac float64
	// MaxNeighborhoodReceived is r_t = max_v r_t(N(v)): the maximum over
	// clients of the total requests received this round by the client's
	// neighborhood. Populated only when Options.TrackNeighborhoods is set.
	MaxNeighborhoodReceived int
	// MaxKt is K_t = max_v (1/(c·d·∆_v))·Σ_{i≤t} r_i(N(v)), the quantity the
	// paper's induction bounds (Definition 6 / eq. 26). Populated only when
	// Options.TrackNeighborhoods is set.
	MaxKt float64
}

// Result is the outcome of one protocol execution.
type Result struct {
	// Variant and Params echo the run configuration.
	Variant Variant
	Params  Params
	// NumClients and NumServers echo the graph dimensions.
	NumClients int
	NumServers int

	// Completed reports whether every ball was assigned within the round
	// cap.
	Completed bool
	// Rounds is the number of rounds executed.
	Rounds int
	// TotalRequests is the total number of ball requests submitted over
	// the whole run.
	TotalRequests int64
	// Work is the total number of exchanged messages: every request
	// message plus its accept/reject answer, i.e. 2·TotalRequests.
	Work int64
	// MaxLoad is the maximum number of balls accepted by any server.
	MaxLoad int
	// MinLoad is the minimum number of balls accepted by any server.
	MinLoad int
	// MeanLoad is the average number of balls accepted per server.
	MeanLoad float64
	// BurnedServers is the number of burned servers at the end (SAER), or
	// the number of servers whose cumulative received total exceeded the
	// capacity (RAES diagnostic).
	BurnedServers int
	// SaturationEvents is the total number of (server, round) pairs in
	// which a non-burned server rejected a round's requests.
	SaturationEvents int64
	// UnassignedBalls is the number of balls still alive when the run
	// stopped (zero iff Completed).
	UnassignedBalls int

	// Loads is the per-server accepted load. Populated only when
	// Options.TrackLoads is set.
	Loads []int
	// PerRound is the per-round series. Populated only when
	// Options.TrackRounds (or TrackNeighborhoods) is set.
	PerRound []RoundStats
	// Assignments[v] lists the servers that accepted client v's balls, in
	// acceptance order (length ≤ the client's request count; equal to it
	// iff the run completed). Populated only when
	// Options.TrackAssignments is set.
	Assignments [][]int32
	// TotalBalls is the overall number of balls the clients had to place
	// (n·d, or the sum of RequestCounts when per-client counts are used).
	TotalBalls int64
}

// Options selects which optional diagnostics a run records. All tracking
// is off by default because the neighborhood statistics cost O(|E|) per
// round.
type Options struct {
	// Shards is the target server-shard count of the routed round loop:
	// phase 1 routes each ball's destination to the lane of the server
	// shard that owns it, and phase 2 folds each shard's lanes and
	// decides its servers on the goroutine that owns the shard. Zero
	// selects the autotuned count (AutotuneShards). A one-worker run with
	// one shard takes the one-lane path: it counts into a plain tally and
	// scans the servers. Like Params.Workers this is a pure performance
	// knob: results are bit-for-bit independent of it (the equivalence
	// tests sweep {0, 1, 2, 3, 8}).
	Shards int
	// TrackRounds records a RoundStats entry per round.
	TrackRounds bool
	// TrackNeighborhoods additionally computes S_t, r_t and K_t per round
	// (implies TrackRounds).
	TrackNeighborhoods bool
	// TrackLoads stores the final per-server load vector in the result.
	TrackLoads bool
	// InitialLoads, when non-nil, pre-loads every server with the given
	// number of already-accepted balls before the first round. This models
	// the dynamic/online scenario of the paper's future-work section, where
	// new client batches arrive while servers still carry load from earlier
	// batches. The slice length must equal the number of servers; a server
	// whose initial load already exceeds the capacity starts burned (SAER)
	// or permanently saturated (RAES).
	InitialLoads []int
	// TrackAssignments records, for every client, which server accepted
	// each of its balls (Result.Assignments). This is what a real client
	// application needs — the actual request→server mapping — and it also
	// exposes the bounded-degree assignment subgraph that Becchetti et
	// al.'s expander construction is built from.
	TrackAssignments bool
	// RequestCounts, when non-nil, gives each client its own number of
	// balls (the paper's general "at most d" case). Entries must be in
	// [0, D]; the slice length must equal the number of clients. When nil,
	// every client has exactly D balls.
	RequestCounts []int
	// Telemetry, when non-nil, receives live counters and per-phase
	// latency histograms from the run (rounds/requests totals, phase
	// spans, steal and row-cache counters; see internal/telemetry).
	// Pure observation: results are bit-for-bit identical whether it is
	// set or nil — the telemetry equivalence suite pins this — and the
	// nil path costs one pointer test per phase per round.
	Telemetry *telemetry.Registry
}

// String summarizes the result in one line.
func (r *Result) String() string {
	status := "completed"
	if !r.Completed {
		status = fmt.Sprintf("stopped with %d balls unassigned", r.UnassignedBalls)
	}
	return fmt.Sprintf("%s(n=%d, d=%d, c=%.2f): %s in %d rounds, work=%d, maxLoad=%d, burned=%d",
		r.Variant, r.NumClients, r.Params.D, r.Params.C, status, r.Rounds, r.Work, r.MaxLoad, r.BurnedServers)
}

// WorkPerBall returns the number of messages exchanged per ball, the
// normalization used to check the Θ(n) work bound (with d constant, work
// per ball should be O(1) independently of n).
func (r *Result) WorkPerBall() float64 {
	balls := float64(r.TotalBalls)
	if balls == 0 {
		balls = float64(r.NumClients) * float64(r.Params.D)
	}
	if balls == 0 {
		return 0
	}
	return float64(r.Work) / balls
}

// AssignmentGraph builds the bipartite subgraph induced by the accepted
// assignments: client v is connected to exactly the servers that accepted
// its balls (with multiplicity when several balls of v landed on the same
// server). On a completed run every client has degree equal to its request
// count and every server has degree at most ⌊c·d⌋ — this is the
// bounded-degree subgraph that Becchetti et al.'s expander construction
// extracts from RAES. It requires the run to have been executed with
// Options.TrackAssignments.
func (r *Result) AssignmentGraph() (*bipartite.Graph, error) {
	if r.Assignments == nil {
		return nil, errors.New("core: AssignmentGraph requires Options.TrackAssignments")
	}
	b := bipartite.NewBuilder(r.NumClients, r.NumServers)
	for v, servers := range r.Assignments {
		for _, u := range servers {
			b.AddEdge(v, int(u))
		}
	}
	return b.Build(bipartite.KeepParallelEdges)
}

// LoadBound returns the protocol's guaranteed load cap ⌊c·d⌋.
func (r *Result) LoadBound() int { return r.Params.Capacity() }

// RespectsLoadBound reports whether the measured maximum load is within
// the guaranteed cap; it should always be true (it is a protocol
// invariant, not a probabilistic statement).
func (r *Result) RespectsLoadBound() bool { return r.MaxLoad <= r.LoadBound() }
