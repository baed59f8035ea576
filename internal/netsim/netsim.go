// Package netsim is a message-passing implementation of the same
// synchronous client–server model simulated by package core: every client
// and every server is its own goroutine, requests and accept/reject
// answers travel over channels, and a coordinator drives the two-phase
// round structure with explicit barriers.
//
// The array-based engine in package core is the fast path used by the
// experiments; netsim exists for two reasons:
//
//  1. Fidelity — it realizes the paper's fully decentralized model
//     literally (entities only exchange messages over the edges of the
//     graph, servers answer one bit per request), which makes it a useful
//     executable specification.
//  2. Cross-validation — given the same seed it reproduces, message for
//     message, the exact random process of the array engine, so the test
//     suite can assert that both implementations agree on every outcome
//     (rounds, loads, burned servers). A bug in either implementation
//     would have to be mirrored in the other to go unnoticed.
//
// Like core, the coordinator ends a SAER run early once it is hopeless: a
// round that accepted and burned nothing, with some client whose every
// neighbor is burned still holding balls.
//
// netsim is intentionally not optimized; use core.Config.Run for large
// simulations.
package netsim

import (
	"fmt"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/rng"
)

// request is a single ball submission travelling from a client to a
// server. The reply channel is where the server must answer with one bit.
type request struct {
	reply chan<- bool
}

// clientReport is what a client tells the coordinator after it has
// received all of its answers for the round.
type clientReport struct {
	client   int
	accepted int
}

// serverReport is what a server tells the coordinator after deciding a
// round.
type serverReport struct {
	server      int
	load        int
	newlyBurned bool
	saturated   bool
}

// Run executes one protocol run of cfg using one goroutine per client
// and per server. It accepts the same configuration as core.Config.Run
// and returns a core.Result with the aggregate fields, the per-round
// series (TrackRounds) and the loads (TrackLoads) populated. This engine
// computes no neighborhood statistics or assignments, and it ignores
// Workers, Shards and Telemetry.
//
// The random process is identical to core.Config.Run's for the same
// seed: each client owns the same private stream and draws destinations
// in the same ball order, and servers apply the same threshold rules.
func Run(g *bipartite.Graph, cfg core.Config) (*core.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	if err := core.CheckInitialLoads(cfg.InitialLoads, g.NumServers()); err != nil {
		return nil, err
	}
	if cfg.RequestCounts != nil {
		if len(cfg.RequestCounts) != g.NumClients() {
			return nil, fmt.Errorf("netsim: RequestCounts has %d entries for %d clients", len(cfg.RequestCounts), g.NumClients())
		}
		for v, c := range cfg.RequestCounts {
			if c < 0 || c > cfg.D {
				return nil, fmt.Errorf("netsim: RequestCounts[%d] = %d outside [0, D=%d]", v, c, cfg.D)
			}
		}
	}

	n := g.NumClients()
	m := g.NumServers()
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = core.DefaultMaxRounds(n)
	}
	capacity := int32(cfg.Params().Capacity())
	streams := rng.NewStreamSlice(cfg.Seed, n)

	// Per-server inbox channels (buffered; servers drain them actively
	// during phase 1) and per-client reply channels (buffered to the
	// client's maximum number of outstanding requests, so servers never
	// block when answering).
	inbox := make([]chan request, m)
	for u := range inbox {
		inbox[u] = make(chan request, 16)
	}
	replies := make([]chan bool, n)
	for v := range replies {
		replies[v] = make(chan bool, cfg.D)
	}

	// Per-entity control channels: each client/server owns its own start
	// (decide) channel so that a fast entity looping back into the next
	// round can never steal a token addressed to a slower one.
	clientStart := make([]chan struct{}, n)
	for v := range clientStart {
		clientStart[v] = make(chan struct{}, 1)
	}
	serverDecide := make([]chan struct{}, m)
	for u := range serverDecide {
		serverDecide[u] = make(chan struct{}, 1)
	}
	sendDone := make(chan struct{}, n)          // client ack: "all my requests are submitted"
	clientReports := make(chan clientReport, n) // end-of-round client reports
	serverReports := make(chan serverReport, m) // end-of-round server reports
	stop := make(chan struct{})                 // closed once the run is over

	var wg sync.WaitGroup

	// --- Server goroutines -------------------------------------------------
	for u := 0; u < m; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			var load, receivedTotal int32
			burned := false
			if cfg.InitialLoads != nil {
				l := cfg.InitialLoads[u]
				if l < 0 {
					l = 0
				}
				load = int32(l)
				receivedTotal = int32(l)
				if load >= capacity {
					burned = true
				}
			}
			pending := make([]request, 0, 16)
			for {
				pending = pending[:0]
			collect:
				for {
					select {
					case req := <-inbox[u]:
						pending = append(pending, req)
					case <-serverDecide[u]:
						// Every client has acknowledged that its sends
						// completed, so anything left is sitting in the
						// buffer; drain it without blocking.
						for {
							select {
							case req := <-inbox[u]:
								pending = append(pending, req)
							default:
								break collect
							}
						}
					case <-stop:
						return
					}
				}

				recv := int32(len(pending))
				accept := false
				newlyBurned := false
				saturated := false
				if recv > 0 {
					receivedTotal += recv
					switch cfg.Variant {
					case core.SAER:
						if !burned {
							if receivedTotal > capacity {
								burned = true
								newlyBurned = true
								saturated = true
							} else {
								load += recv
								accept = true
							}
						}
					case core.RAES:
						if !burned && receivedTotal > capacity {
							burned = true
							newlyBurned = true
						}
						if recv > capacity-load { // load+recv could overflow
							saturated = true
						} else {
							load += recv
							accept = true
						}
					}
				}
				for _, req := range pending {
					req.reply <- accept
				}
				serverReports <- serverReport{server: u, load: int(load), newlyBurned: newlyBurned, saturated: saturated}
			}
		}(u)
	}

	// --- Client goroutines --------------------------------------------------
	for v := 0; v < n; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			alive := cfg.D
			if cfg.RequestCounts != nil {
				alive = cfg.RequestCounts[v]
			}
			nbrs := g.ClientNeighbors(v)
			src := &streams[v]
			for {
				select {
				case <-clientStart[v]:
				case <-stop:
					return
				}
				sent := alive
				for i := 0; i < sent; i++ {
					u := nbrs[src.Intn(len(nbrs))]
					inbox[u] <- request{reply: replies[v]}
				}
				sendDone <- struct{}{}
				accepted := 0
				for i := 0; i < sent; i++ {
					if <-replies[v] {
						accepted++
					}
				}
				alive -= accepted
				clientReports <- clientReport{client: v, accepted: accepted}
			}
		}(v)
	}

	// --- Coordinator ---------------------------------------------------------
	res := &core.Result{
		Variant:    cfg.Variant,
		Params:     cfg.Params(),
		NumClients: n,
		NumServers: m,
	}
	totalBalls := int64(0)
	if cfg.RequestCounts != nil {
		for _, c := range cfg.RequestCounts {
			totalBalls += int64(c)
		}
	} else {
		totalBalls = int64(n) * int64(cfg.D)
	}
	res.TotalBalls = totalBalls

	// The coordinator mirrors each client's alive balls (from the client
	// reports) and the burned set (initial loads at capacity, then the
	// server reports) for the starved-client exit.
	alive := make([]int, n)
	for v := range alive {
		alive[v] = cfg.D
		if cfg.RequestCounts != nil {
			alive[v] = cfg.RequestCounts[v]
		}
	}
	burned := make([]bool, m)
	for u, l := range cfg.InitialLoads {
		burned[u] = l >= int(capacity)
	}

	aliveTotal := totalBalls
	burnedTotal := 0
	loads := make([]int, m)
	trackRounds := cfg.TrackRounds || cfg.TrackNeighborhoods
	round := 0
	for aliveTotal > 0 && round < maxRounds {
		round++
		requestsThisRound := aliveTotal

		// Phase 1: release every client and wait until all of them have
		// finished submitting their requests.
		for v := 0; v < n; v++ {
			clientStart[v] <- struct{}{}
		}
		for i := 0; i < n; i++ {
			<-sendDone
		}
		// Phase 2: let every server decide on this round's batch.
		for u := 0; u < m; u++ {
			serverDecide[u] <- struct{}{}
		}
		// Collect the round outcome.
		accepted := int64(0)
		for i := 0; i < n; i++ {
			rep := <-clientReports
			accepted += int64(rep.accepted)
			alive[rep.client] -= rep.accepted
		}
		newlyBurned, saturated := 0, 0
		for u := 0; u < m; u++ {
			sr := <-serverReports
			loads[sr.server] = sr.load
			if sr.newlyBurned {
				newlyBurned++
				burned[sr.server] = true
			}
			if sr.saturated {
				saturated++
			}
		}

		burnedTotal += newlyBurned
		res.TotalRequests += requestsThisRound
		res.SaturationEvents += int64(saturated)
		aliveTotal -= accepted
		if trackRounds {
			res.PerRound = append(res.PerRound, core.RoundStats{
				Round:              round,
				AliveBalls:         int(requestsThisRound),
				RequestsSent:       int(requestsThisRound),
				RequestsAccepted:   int(accepted),
				NewlyBurned:        newlyBurned,
				BurnedTotal:        burnedTotal,
				SaturatedThisRound: saturated,
			})
		}
		// The SAER hopeless-run exit, as in core: after a round that
		// accepted and burned nothing, stop if some client with balls left
		// has every neighbor burned.
		if accepted == 0 && newlyBurned == 0 && aliveTotal > 0 && cfg.Variant == core.SAER &&
			hasStarvedClient(g, alive, burned) {
			break
		}
	}
	close(stop)
	wg.Wait()

	res.Rounds = round
	res.Work = 2 * res.TotalRequests
	res.UnassignedBalls = int(aliveTotal)
	res.Completed = aliveTotal == 0
	res.BurnedServers = burnedTotal

	maxLoad, minLoad := 0, int(^uint(0)>>1)
	var sum int64
	for _, l := range loads {
		if l > maxLoad {
			maxLoad = l
		}
		if l < minLoad {
			minLoad = l
		}
		sum += int64(l)
	}
	if m == 0 {
		minLoad = 0
	}
	res.MaxLoad = maxLoad
	res.MinLoad = minLoad
	res.MeanLoad = float64(sum) / float64(m)
	if cfg.TrackLoads {
		res.Loads = append([]int(nil), loads...)
	}
	return res, nil
}

// hasStarvedClient reports whether some client with alive balls has
// every neighbor burned: it can never place them under SAER.
func hasStarvedClient(g *bipartite.Graph, alive []int, burned []bool) bool {
	for v, a := range alive {
		if a == 0 {
			continue
		}
		starved := true
		for _, u := range g.ClientNeighbors(v) {
			if !burned[u] {
				starved = false
				break
			}
		}
		if starved {
			return true
		}
	}
	return false
}
