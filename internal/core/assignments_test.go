package core

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/rng"
)

func TestTrackAssignmentsCompleteRun(t *testing.T) {
	g, err := gen.Regular(512, 30, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	d := 3
	res, err := Config{Variant: SAER, D: d, C: 4, Seed: 11, TrackAssignments: true, TrackLoads: true}.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if len(res.Assignments) != g.NumClients() {
		t.Fatalf("assignments for %d clients, want %d", len(res.Assignments), g.NumClients())
	}
	serverLoad := make([]int, g.NumServers())
	for v, servers := range res.Assignments {
		if len(servers) != d {
			t.Fatalf("client %d has %d assignments, want %d", v, len(servers), d)
		}
		for _, u := range servers {
			// Every assignment must be an admissible edge.
			if !g.HasEdge(v, int(u)) {
				t.Fatalf("client %d assigned to non-admissible server %d", v, u)
			}
			serverLoad[u]++
		}
	}
	// The assignment multiset must match the measured loads exactly.
	for u, l := range serverLoad {
		if l != res.Loads[u] {
			t.Fatalf("server %d: assignment count %d != load %d", u, l, res.Loads[u])
		}
	}
}

func TestAssignmentGraphProperties(t *testing.T) {
	g, err := gen.Regular(1024, 40, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	d := 2
	cfg := Config{Variant: RAES, D: d, C: 4, Seed: 21, TrackAssignments: true}
	res, err := cfg.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := res.AssignmentGraph()
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumClients() != g.NumClients() || sub.NumServers() != g.NumServers() {
		t.Fatal("assignment graph has wrong dimensions")
	}
	// On a completed run: client degree = d, server degree ≤ cap. This is
	// the bounded-degree subgraph of Becchetti et al.'s construction.
	for v := 0; v < sub.NumClients(); v++ {
		if sub.ClientDegree(v) != d {
			t.Fatalf("client %d degree %d in assignment graph, want %d", v, sub.ClientDegree(v), d)
		}
	}
	for u := 0; u < sub.NumServers(); u++ {
		if sub.ServerDegree(u) > cfg.Params().Capacity() {
			t.Fatalf("server %d degree %d exceeds cap %d", u, sub.ServerDegree(u), cfg.Params().Capacity())
		}
	}
}

func TestAssignmentGraphRequiresTracking(t *testing.T) {
	g, err := gen.Regular(64, 8, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Config{Variant: SAER, D: 2, C: 4, Seed: 1}.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.AssignmentGraph(); err == nil {
		t.Fatal("AssignmentGraph should fail without tracking")
	}
}

func TestRequestCountsValidation(t *testing.T) {
	g, err := gen.Regular(64, 8, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Config{Variant: SAER, D: 2, C: 4, RequestCounts: []int{1, 2}}).Run(g); err == nil {
		t.Error("wrong-length RequestCounts accepted")
	}
	bad := make([]int, 64)
	bad[3] = 5 // exceeds D=2
	if _, err := (Config{Variant: SAER, D: 2, C: 4, RequestCounts: bad}).Run(g); err == nil {
		t.Error("out-of-range RequestCounts accepted")
	}
	neg := make([]int, 64)
	neg[0] = -1
	if _, err := (Config{Variant: SAER, D: 2, C: 4, RequestCounts: neg}).Run(g); err == nil {
		t.Error("negative RequestCounts accepted")
	}
}

func TestRequestCountsGeneralCase(t *testing.T) {
	// The paper's general "at most d" case: clients hold between 0 and d
	// balls. The run must place exactly the requested number of balls.
	g, err := gen.Regular(512, 30, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	d := 4
	src := rng.New(99)
	counts := make([]int, 512)
	total := 0
	for i := range counts {
		counts[i] = src.Intn(d + 1)
		total += counts[i]
	}
	res, err := Config{Variant: SAER, D: d, C: 4, Seed: 3,
		RequestCounts: counts, TrackAssignments: true, TrackLoads: true}.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("general-case run did not complete: %v", res)
	}
	if res.TotalBalls != int64(total) {
		t.Errorf("TotalBalls %d, want %d", res.TotalBalls, total)
	}
	placed := 0
	for v, servers := range res.Assignments {
		if len(servers) != counts[v] {
			t.Fatalf("client %d placed %d balls, want %d", v, len(servers), counts[v])
		}
		placed += len(servers)
	}
	if placed != total {
		t.Errorf("placed %d balls in total, want %d", placed, total)
	}
	var loadSum int
	for _, l := range res.Loads {
		loadSum += l
	}
	if loadSum != total {
		t.Errorf("total server load %d, want %d", loadSum, total)
	}
	if res.WorkPerBall() < 2 {
		t.Errorf("work per ball %v below 2", res.WorkPerBall())
	}
}

func TestRequestCountsZeroClientsFinishImmediately(t *testing.T) {
	g, err := gen.Regular(128, 16, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 128) // everyone has zero requests
	res, err := Config{Variant: SAER, D: 2, C: 4, Seed: 1, RequestCounts: counts}.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Rounds != 0 || res.Work != 0 {
		t.Errorf("zero-request run should finish instantly: %v", res)
	}
}

// Property: with arbitrary request counts the protocol conserves balls and
// respects the load cap.
func TestQuickRequestCountsConservation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 64 + int(nRaw%64)
		g, err := gen.Regular(n, 16, rng.New(seed))
		if err != nil {
			return false
		}
		d := 3
		src := rng.New(seed ^ 0xfeed)
		counts := make([]int, n)
		total := 0
		for i := range counts {
			counts[i] = src.Intn(d + 1)
			total += counts[i]
		}
		res, err := Config{Variant: RAES, D: d, C: 5, Seed: seed, RequestCounts: counts, TrackLoads: true}.Run(g)
		if err != nil || !res.Completed {
			return false
		}
		sum := 0
		for _, l := range res.Loads {
			if l > res.LoadBound() {
				return false
			}
			sum += l
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
