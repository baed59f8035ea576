// Package core implements the paper's contribution: the SAER parallel
// load-balancing protocol ("Stop Accepting if Exceeding Requests") and the
// RAES protocol of Becchetti et al. ("Request a link, then Accept if
// Enough Space") that SAER is a variant of.
//
// Both protocols run on an arbitrary bipartite client–server graph in
// synchronous rounds of two phases:
//
//	Phase 1 — every client with unassigned balls picks, for each such
//	ball, a destination server independently and uniformly at random
//	(with replacement) from its neighborhood and submits the request.
//
//	Phase 2 — every server applies a threshold rule to the requests it
//	received this round and answers accept or reject for all of them:
//
//	  SAER: a server that has received more than c·d balls since the
//	  start of the process rejects the round's requests and becomes
//	  *burned*; a burned server rejects every future request.
//
//	  RAES: a server whose accepted load would exceed c·d by accepting
//	  the round's requests rejects them (it is *saturated* this round)
//	  but may accept again in later rounds.
//
// The protocol completes when every ball has been accepted; at that point
// every server's load is at most c·d by construction.
//
// A run is described by a Config and started with Config.Run (or
// Config.NewRunner, or NewDriver over a ServerBank). The implementation
// executes rounds in parallel with worker goroutines (see package engine)
// yet is fully deterministic given Config.Seed, independent of the worker
// and shard counts.
package core

import (
	"errors"
	"fmt"
	"math"
)

// Variant selects which of the two threshold protocols to run.
type Variant int

const (
	// SAER is the paper's protocol: a server that ever receives more than
	// c·d cumulative requests becomes burned and never accepts again.
	SAER Variant = iota
	// RAES is Becchetti et al.'s protocol: a server rejects a round whose
	// acceptance would push its load above c·d, but keeps participating.
	RAES
)

// String returns the protocol's name.
func (v Variant) String() string {
	switch v {
	case SAER:
		return "SAER"
	case RAES:
		return "RAES"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Params is the protocol identity of a run, the part of its Config that
// Result echoes: D, C, MaxRounds and Seed as documented on Config.
type Params struct {
	D         int
	C         float64
	MaxRounds int
	Seed      uint64
}

// Capacity returns the per-server acceptance threshold ⌊C·D⌋.
func (p Params) Capacity() int {
	return int(math.Floor(p.C * float64(p.D)))
}

// DefaultMaxRounds returns the default round cap used when
// Config.MaxRounds is zero: a comfortable multiple of the paper's
// 3·log₂ n completion bound, so that a misconfigured run terminates with
// Completed == false instead of spinning forever.
func DefaultMaxRounds(n int) int {
	if n < 2 {
		return 64
	}
	return 64 + 30*int(math.Ceil(math.Log2(float64(n))))
}

// CompletionBound returns the paper's completion-time bound of Lemma 4 /
// Theorem 1: 3·log₂ n rounds (the proof argues (1/2)^{3·log₂ n} = n⁻³ per
// ball once S_t ≤ 1/2).
func CompletionBound(n int) int {
	if n < 2 {
		return 1
	}
	return int(math.Ceil(3 * math.Log2(float64(n))))
}

// MinCRegular returns the smallest threshold constant for which Lemma 4
// holds on ∆-regular graphs: c ≥ max(32, 288/(η·d)), where ∆ ≥ η·log² n.
func MinCRegular(eta float64, d int) float64 {
	if eta <= 0 || d <= 0 {
		return math.Inf(1)
	}
	return math.Max(32, 288/(eta*float64(d)))
}

// MinCAlmostRegular returns the smallest threshold constant for which
// Lemma 19 holds on almost-regular graphs with ∆min(C) ≥ η·log² n and
// ∆max(S)/∆min(C) ≤ ρ: c ≥ max(32·ρ, 288/(η·d)).
func MinCAlmostRegular(eta, rho float64, d int) float64 {
	if eta <= 0 || rho <= 0 || d <= 0 {
		return math.Inf(1)
	}
	return math.Max(32*rho, 288/(eta*float64(d)))
}

// ErrInvalidGraph is returned when the input graph cannot support the
// protocol (empty sides or isolated clients).
var ErrInvalidGraph = errors.New("core: graph cannot support the protocol")
