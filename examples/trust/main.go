// Trust example: the paper's motivation (i) — every client only sends
// requests to a fixed subset of servers it trusts from previous
// interactions, and, symmetrically, servers do not want to reveal their
// current load to clients.
//
// The example builds a trust-subset topology (each client trusts k random
// servers), runs SAER next to the sequential best-of-2 greedy baseline
// that *does* require servers to publish their loads, and contrasts the
// two along the axes the paper cares about: maximum load, parallel time,
// message work, and how much information about server load a client could
// infer.
//
// Run with:
//
//	go run ./examples/trust
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

func main() {
	const n = 8192
	const d = 2
	trusted := int(math.Ceil(math.Pow(math.Log2(n), 2))) // each client trusts ≈ log²(n) servers

	g, err := gen.TrustSubset(n, n, trusted, rng.New(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trust topology: every one of the %d clients trusts %d of the %d servers\n\n", n, trusted, n)

	// SAER: parallel, servers only answer accept/reject.
	saer, err := core.Config{Variant: core.SAER, D: d, C: 4, Seed: 11}.Run(g)
	if err != nil {
		log.Fatal(err)
	}

	// Sequential greedy with two load probes per ball (needs load info).
	greedy, err := baseline.GreedyBestOfK(g, d, 2, 11)
	if err != nil {
		log.Fatal(err)
	}

	// Sequential one-choice (no load info, but no balance either).
	oneChoice, err := baseline.OneChoice(g, d, 11)
	if err != nil {
		log.Fatal(err)
	}

	balls := float64(n * d)
	fmt.Printf("%-22s %-10s %-14s %-12s %-12s %s\n",
		"algorithm", "max load", "time", "msgs/ball", "load info", "notes")
	fmt.Printf("%-22s %-10d %-14s %-12.2f %-12s %s\n",
		"SAER (this paper)", saer.MaxLoad,
		fmt.Sprintf("%d rounds", saer.Rounds), float64(saer.Work)/balls,
		"none", fmt.Sprintf("cap c·d = %d, servers answer 1 bit", saer.LoadBound()))
	fmt.Printf("%-22s %-10d %-14s %-12.2f %-12s %s\n",
		"greedy best-of-2", greedy.MaxLoad,
		fmt.Sprintf("%d seq. steps", greedy.Steps), float64(greedy.Work)/balls,
		"required", "each ball sees two current loads")
	fmt.Printf("%-22s %-10d %-14s %-12.2f %-12s %s\n",
		"one-choice", oneChoice.MaxLoad,
		fmt.Sprintf("%d seq. steps", oneChoice.Steps), float64(oneChoice.Work)/balls,
		"none", "no balancing at all")

	fmt.Println()
	fmt.Printf("SAER places all %d requests in %d parallel rounds with max load %d ≤ %d,\n",
		int(balls), saer.Rounds, saer.MaxLoad, saer.LoadBound())
	fmt.Println("while never letting a client learn more than one accept/reject bit per request —")
	fmt.Println("the privacy property highlighted in Section 2.2, remark (ii) of the paper.")
	fmt.Printf("Greedy reaches max load %d but is sequential (%d steps) and leaks load values.\n",
		greedy.MaxLoad, greedy.Steps)
}
