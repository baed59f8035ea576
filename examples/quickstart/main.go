// Quickstart: build a random Δ-regular client–server topology, run the
// SAER protocol on it, and check the outcome against the paper's bounds.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

func main() {
	// 1. Build the topology: 8192 clients and 8192 servers, each client
	//    admissible for Δ = 169 ≈ log²(n) uniformly random servers.
	const n = 8192
	const delta = 169
	g, err := gen.Regular(n, delta, rng.New(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("topology:", g)

	// 2. Configure the protocol: SAER, every client holds d = 2 requests,
	//    every server accepts at most c·d = 8 of them in total. Tracking is
	//    enabled so we can inspect the per-round burned-server fractions
	//    the analysis is about.
	cfg := core.Config{
		Variant:            core.SAER,
		D:                  2,
		C:                  4,
		Seed:               7,
		TrackNeighborhoods: true,
	}

	// 3. Run it.
	result, err := cfg.Run(g)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Inspect the outcome.
	fmt.Println("\nresult:", result)
	fmt.Println("\nround-by-round (alive balls → accepted, max burned fraction):")
	for _, round := range result.PerRound {
		fmt.Printf("  round %2d: %6d alive, %6d accepted, S_t = %.3f\n",
			round.Round, round.AliveBalls, round.RequestsAccepted, round.MaxNeighborhoodBurnedFrac)
	}

	// 5. Compare against the paper's statements (Theorem 1 and Lemma 4).
	fmt.Println("\ntheorem check:")
	fmt.Println(analysis.CheckTheorem1(result))
}
