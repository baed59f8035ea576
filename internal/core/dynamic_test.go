package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
)

func TestInitialLoadsValidation(t *testing.T) {
	g, err := gen.Regular(64, 8, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Config{Variant: SAER, D: 2, C: 4, Seed: 1, InitialLoads: make([]int, 10)}.Run(g)
	if err == nil {
		t.Fatal("InitialLoads with wrong length accepted")
	}
}

func TestInitialLoadsRespected(t *testing.T) {
	g, err := gen.Regular(256, 24, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	init := make([]int, g.NumServers())
	for u := range init {
		init[u] = 3 // capacity will be 8, so plenty of room remains
	}
	res, err := Config{Variant: SAER, D: 2, C: 4, Seed: 5, InitialLoads: init, TrackLoads: true}.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run with moderate initial loads did not complete: %v", res)
	}
	// Every final load includes the initial 3 and never exceeds the cap.
	for u, l := range res.Loads {
		if l < 3 {
			t.Fatalf("server %d lost its initial load: %d", u, l)
		}
		if l > res.LoadBound() {
			t.Fatalf("server %d load %d exceeds cap %d", u, l, res.LoadBound())
		}
	}
	// Total load = initial total + all newly placed balls.
	var total int
	for _, l := range res.Loads {
		total += l
	}
	want := 3*g.NumServers() + 2*g.NumClients()
	if total != want {
		t.Errorf("total load %d, want %d", total, want)
	}
}

func TestInitialLoadsAtCapacityBlockServers(t *testing.T) {
	g, err := gen.Regular(256, 24, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	capPerServer := 8 // d=2, c=4
	init := make([]int, g.NumServers())
	// Fill half the servers completely; the rest are empty.
	for u := 0; u < g.NumServers()/2; u++ {
		init[u] = capPerServer
	}
	res, err := Config{Variant: SAER, D: 2, C: 4, Seed: 9, InitialLoads: init, TrackLoads: true}.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumServers()/2; u++ {
		if res.Loads[u] != capPerServer {
			t.Fatalf("pre-filled server %d changed load to %d", u, res.Loads[u])
		}
	}
	if !res.Completed {
		// With half the servers gone the remaining capacity (8·n/2 = 4n)
		// still easily fits the 2n new balls, so completion is expected.
		t.Errorf("run did not complete despite sufficient remaining capacity: %v", res)
	}
}
