package netsim

import (
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/wire"
)

func testGraph(t testing.TB, n, delta int, seed uint64) *bipartite.Graph {
	t.Helper()
	g, err := gen.Regular(n, delta, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNetsimCompletes(t *testing.T) {
	g := testGraph(t, 512, 30, 1)
	res, err := Run(g, core.Config{Variant: core.SAER, D: 2, C: 4, Seed: 9, TrackLoads: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("netsim run did not complete: %v", res)
	}
	if res.MaxLoad > res.LoadBound() {
		t.Errorf("max load %d exceeds cap %d", res.MaxLoad, res.LoadBound())
	}
	total := 0
	for _, l := range res.Loads {
		total += l
	}
	if total != 512*2 {
		t.Errorf("total load %d, want %d", total, 512*2)
	}
}

// TestNetsimMatchesCoreExactly is the cross-validation test: the
// channel-based engine and the array-based engine realize the same random
// process, so with identical seeds every observable outcome must agree.
func TestNetsimMatchesCoreExactly(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		delta int
		cfg   core.Config
	}{
		{"saer-easy", 512, 30, core.Config{Variant: core.SAER, D: 2, C: 4, Seed: 11}},
		{"saer-tight", 512, 30, core.Config{Variant: core.SAER, D: 2, C: 2, Seed: 12}},
		{"raes-easy", 512, 30, core.Config{Variant: core.RAES, D: 3, C: 4, Seed: 13}},
		{"raes-tight", 256, 20, core.Config{Variant: core.RAES, D: 2, C: 1.75, Seed: 14}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(t, tc.n, tc.delta, 100+uint64(tc.n))
			cfg := tc.cfg
			cfg.TrackRounds, cfg.TrackLoads = true, true
			fast, err := cfg.Run(g)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := Run(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fast.Completed != slow.Completed || fast.Rounds != slow.Rounds {
				t.Fatalf("completion/rounds differ: core=%v netsim=%v", fast, slow)
			}
			if fast.TotalRequests != slow.TotalRequests || fast.Work != slow.Work {
				t.Fatalf("work differs: core=%d netsim=%d", fast.Work, slow.Work)
			}
			if fast.MaxLoad != slow.MaxLoad || fast.MinLoad != slow.MinLoad || fast.BurnedServers != slow.BurnedServers {
				t.Fatalf("load/burned stats differ: core=%v netsim=%v", fast, slow)
			}
			if fast.SaturationEvents != slow.SaturationEvents {
				t.Fatalf("saturation events differ: core=%d netsim=%d", fast.SaturationEvents, slow.SaturationEvents)
			}
			for u := range fast.Loads {
				if fast.Loads[u] != slow.Loads[u] {
					t.Fatalf("server %d load differs: core=%d netsim=%d", u, fast.Loads[u], slow.Loads[u])
				}
			}
			if len(fast.PerRound) != len(slow.PerRound) {
				t.Fatalf("per-round series lengths differ")
			}
			for i := range fast.PerRound {
				a, b := fast.PerRound[i], slow.PerRound[i]
				if a.RequestsSent != b.RequestsSent || a.RequestsAccepted != b.RequestsAccepted ||
					a.NewlyBurned != b.NewlyBurned || a.BurnedTotal != b.BurnedTotal {
					t.Fatalf("round %d differs: core=%+v netsim=%+v", i+1, a, b)
				}
			}
		})
	}
}

func TestNetsimRequestCountsAndInitialLoads(t *testing.T) {
	g := testGraph(t, 256, 24, 3)
	counts := make([]int, 256)
	src := rng.New(5)
	for i := range counts {
		counts[i] = src.Intn(3)
	}
	init := make([]int, 256)
	for i := range init {
		init[i] = 2
	}
	cfg := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: 77,
		RequestCounts: counts, InitialLoads: init, TrackLoads: true}
	fast, err := cfg.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Rounds != slow.Rounds || fast.MaxLoad != slow.MaxLoad || fast.Completed != slow.Completed {
		t.Fatalf("engines disagree on the general case: core=%v netsim=%v", fast, slow)
	}
	for u := range fast.Loads {
		if fast.Loads[u] != slow.Loads[u] {
			t.Fatalf("server %d load differs", u)
		}
	}
}

func TestNetsimValidation(t *testing.T) {
	g := testGraph(t, 64, 8, 4)
	if _, err := Run(g, core.Config{Variant: core.SAER, D: 0, C: 4}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := Run(g, core.Config{Variant: core.Variant(9), D: 2, C: 4}); err == nil {
		t.Error("unknown variant accepted")
	}
	if _, err := Run(g, core.Config{Variant: core.SAER, D: 2, C: 4, InitialLoads: []int{1}}); err == nil {
		t.Error("wrong-length InitialLoads accepted")
	}
	if _, err := Run(g, core.Config{Variant: core.SAER, D: 2, C: 4, RequestCounts: []int{1}}); err == nil {
		t.Error("wrong-length RequestCounts accepted")
	}
	bad, err := bipartite.NewBuilder(2, 2).AddEdge(0, 0).Build(bipartite.KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(bad, core.Config{Variant: core.SAER, D: 2, C: 4}); err == nil {
		t.Error("isolated client accepted")
	}
}

// TestCapacityOverflowRejected is the regression test for a capacity
// ⌊C·D⌋ above MaxInt32: every server half holds the capacity as int32,
// so such a config used to validate and then wrap to a negative
// capacity that rejects every request. All three ways to start a run —
// Config.Run, NewDriver and netsim.Run — must refuse it with an error
// that names the capacity.
func TestCapacityOverflowRejected(t *testing.T) {
	g := testGraph(t, 256, 8, 7)
	cfg := core.Config{Variant: core.SAER, D: 1, C: 3e9}
	bank, err := core.NewLocalBank(core.SAER, 1, g.NumServers(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, start := range map[string]func() error{
		"Config.Run": func() error { _, err := cfg.Run(g); return err },
		"NewDriver":  func() error { _, err := core.NewDriver(g, cfg, bank); return err },
		"netsim.Run": func() error { _, err := Run(g, cfg); return err },
	} {
		err := start()
		if err == nil {
			t.Errorf("%s accepted capacity 3e9", name)
		} else if !strings.Contains(err.Error(), "3000000000") {
			t.Errorf("%s: error %q does not name the capacity", name, err)
		}
	}
}

// TestInitialLoadOverflowRejected is the regression test for an
// InitialLoads entry above MaxInt32: every server half holds a load as
// int32, so such an entry used to wrap silently, and a SAER run whose
// servers all start burned reported Completed (2³¹ wrapped to a negative
// load that clamped to 0, 2³²+1 to a load of 1). All three ways to start
// a run must refuse it with an error that names the server and the
// value, and accept MaxInt32 itself: no server can take another ball,
// under SAER or RAES, and every load stays at MaxInt32. An entry below
// MinInt32 is negative and clamps to 0 on every path; the server shards
// of the Runner and the LocalBank used to convert it to int32 before
// clamping, so −2³² + 5 wrapped to a load of 5 there.
func TestInitialLoadOverflowRejected(t *testing.T) {
	g := testGraph(t, 64, 8, 7)
	m := g.NumServers()
	bank, err := core.NewLocalBank(core.SAER, 8, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	raesBank, err := core.NewLocalBank(core.RAES, 8, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	preload := func(variant core.Variant, l, at int) core.Config {
		loads := make([]int, m)
		for u := range loads {
			loads[u] = min(l, math.MaxInt32)
		}
		loads[at] = l
		return core.Config{Variant: variant, D: 2, C: 4, Seed: 1, MaxRounds: 3, TrackLoads: true, InitialLoads: loads}
	}
	for name, start := range map[string]func(core.Config) (*core.Result, error){
		"Config.Run": func(cfg core.Config) (*core.Result, error) { return cfg.Run(g) },
		"NewDriver": func(cfg core.Config) (*core.Result, error) {
			b := bank
			if cfg.Variant == core.RAES {
				b = raesBank
			}
			dr, err := core.NewDriver(g, cfg, b)
			if err != nil {
				return nil, err
			}
			return dr.Run()
		},
		"netsim.Run": func(cfg core.Config) (*core.Result, error) { return Run(g, cfg) },
	} {
		for _, l := range []int{1 << 31, 1<<32 + 1} {
			_, err := start(preload(core.SAER, l, 5))
			if err == nil {
				t.Errorf("%s accepted initial load %d", name, l)
			} else if msg := err.Error(); !strings.Contains(msg, strconv.Itoa(l)) || !strings.Contains(msg, "server 5") {
				t.Errorf("%s: error %q does not name server 5 and load %d", name, msg, l)
			}
		}
		for _, variant := range []core.Variant{core.SAER, core.RAES} {
			res, err := start(preload(variant, math.MaxInt32, 0))
			if err != nil {
				t.Errorf("%s %v: initial load MaxInt32 rejected: %v", name, variant, err)
				continue
			}
			if res.Completed || res.MaxLoad != math.MaxInt32 {
				t.Errorf("%s %v: completed=%v max load %d with every server at MaxInt32",
					name, variant, res.Completed, res.MaxLoad)
			}
			for u, l := range res.Loads {
				if l != math.MaxInt32 {
					t.Fatalf("%s %v: server %d ends at load %d, want MaxInt32", name, variant, u, l)
				}
			}
		}
		unloaded := preload(core.SAER, 0, 0)
		unloaded.InitialLoads = nil
		want, err := start(unloaded)
		if err != nil {
			t.Fatalf("%s without initial loads: %v", name, err)
		}
		if got, err := start(preload(core.SAER, -(1<<32)+5, 5)); err != nil {
			t.Errorf("%s: initial loads of -2^32+5: %v", name, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: initial loads of -2^32+5 give max load %d, want the unloaded run's %d",
				name, got.MaxLoad, want.MaxLoad)
		}
	}
}

func TestNetsimRoundCap(t *testing.T) {
	// Two clients forced onto one server with capacity 2 cannot place 4
	// balls; RAES has no starvation exit so the run must stop at the cap.
	b := bipartite.NewBuilder(2, 1)
	b.AddEdge(0, 0).AddEdge(1, 0)
	g, err := b.Build(bipartite.KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, core.Config{Variant: core.RAES, D: 2, C: 1, Seed: 1, MaxRounds: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Error("impossible instance reported complete")
	}
	if res.Rounds != 7 {
		t.Errorf("rounds %d, want the cap 7", res.Rounds)
	}
	// Both clients aim every ball at the single server, so each round sees
	// 4 > 2 requests and RAES rejects them all: nothing is ever placed.
	if res.UnassignedBalls != 4 {
		t.Errorf("unassigned %d, want 4", res.UnassignedBalls)
	}
}

// TestLongRunEnginesAgree runs past round 255, where the client loop's
// old one-byte accept epoch wrapped, and pins the accept set's
// per-round clear across every way to run the protocol. RAES with D = 1
// and C = 1 gives every server capacity 1, and on the complete graph
// K(128, 128) with server 0 preloaded full, 128 balls compete for 127
// free places: the run never finishes and stops at its cap of 400
// rounds, after a long tail of single retries. A server's accept bit
// that outlived its round would count a rejected retry as placed.
func TestLongRunEnginesAgree(t *testing.T) {
	const n = 128
	b := bipartite.NewBuilder(n, n)
	for v := 0; v < n; v++ {
		for u := 0; u < n; u++ {
			b.AddEdge(v, u)
		}
	}
	g, err := b.Build(bipartite.KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]int, n)
	initial[0] = 1
	cfg := core.Config{Variant: core.RAES, D: 1, C: 1, Seed: 1, MaxRounds: 400,
		InitialLoads: initial, TrackRounds: true, TrackLoads: true}
	ref, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rounds <= 255 || ref.Completed {
		t.Fatalf("netsim: %d rounds, completed %t; want an unfinished run past round 255", ref.Rounds, ref.Completed)
	}
	for _, workers := range []int{1, 2} {
		for _, shards := range []int{1, 3} {
			c := cfg
			c.Workers, c.Shards = workers, shards
			got, err := c.Run(g)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("Runner workers=%d shards=%d differs from netsim: %v vs %v", workers, shards, got, ref)
			}
		}
	}
	dr, err := core.NewLocalDriver(g, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("Driver over LocalBank differs from netsim: %v vs %v", got, ref)
	}
}

// TestStarvedEnginesAgree pins the SAER starved-client exit on every
// engine. On the complete graph K(4096, 8) with D = 2 and C = 100, each
// server's capacity of 200 is crossed by round 1's ~1024 requests, so
// every server burns at once; round 2 accepts and burns nothing, and
// every client with balls left has only burned neighbors. The run must
// stop after round 2 everywhere, not at the cap of 50.
func TestStarvedEnginesAgree(t *testing.T) {
	g, err := gen.Complete(4096, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Variant: core.SAER, D: 2, C: 100, Seed: 7, MaxRounds: 50, TrackRounds: true, TrackLoads: true}
	ref, err := Run(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Rounds != 2 || ref.Completed || ref.BurnedServers != 8 {
		t.Fatalf("netsim: %d rounds, completed %t, %d burned; want a hopeless run stopped after round 2 with all 8 burned",
			ref.Rounds, ref.Completed, ref.BurnedServers)
	}
	for _, workers := range []int{1, 2} {
		c := cfg
		c.Workers = workers
		got, err := c.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("Runner workers=%d differs from netsim: %v vs %v", workers, got, ref)
		}
	}
	dr, err := core.NewLocalDriver(g, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("Driver over LocalBank differs from netsim: %v vs %v", got, ref)
	}
}

// TestByteWrapEnginesAgree drives the counted round's wrap path on a
// point-query topology, the path it serves: TrustSubsetImplicit(4096,
// 8, 8) lists all 8 servers for every client, so round 1 sends each
// server about 1024 balls, about 520 from each of two workers, and every
// worker's byte wraps past 255 twice (C = 2000 accepts them all); one
// worker counts all of about 1024 and wraps about four times. The
// Runner at 1, 2 and 3 workers, a Driver over LocalBank at 1 and 2
// workers, one over wire loopback at 2 workers and netsim on the
// materialized twin must agree, for SAER and RAES.
func TestByteWrapEnginesAgree(t *testing.T) {
	topo, err := gen.TrustSubsetImplicit(4096, 8, 8, 0x3A)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topo.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []core.Variant{core.SAER, core.RAES} {
		cfg := core.Config{Variant: variant, D: 2, C: 2000, Seed: 3, TrackRounds: true, TrackLoads: true}
		ref, err := Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref.MaxLoad < 4*256 {
			t.Fatalf("%s: max load %d; the instance no longer wraps every worker's bytes", variant, ref.MaxLoad)
		}
		for _, workers := range []int{1, 2, 3} {
			c := cfg
			c.Workers = workers
			got, err := c.Run(topo)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: Runner workers=%d differs from netsim: %v vs %v", variant, workers, got, ref)
			}
		}
		for _, workers := range []int{1, 2} {
			c := cfg
			c.Workers = workers
			dr, err := core.NewLocalDriver(topo, c, 2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dr.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: Driver workers=%d over LocalBank differs from netsim: %v vs %v", variant, workers, got, ref)
			}
		}
		c := cfg
		c.Workers = 2
		got := runLoopback(t, topo, c, 2)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: Driver over wire loopback differs from netsim: %v vs %v", variant, got, ref)
		}
	}
}

// runLoopback runs cfg on topo through a Driver over a wire Bank dialed
// to `shards` in-process loopback shard servers.
func runLoopback(t *testing.T, topo bipartite.Topology, cfg core.Config, shards int) *core.Result {
	t.Helper()
	ss, err := wire.StartLocalSet(shards)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	bank, err := wire.Dial(ss.Addrs(), cfg.Variant, int32(cfg.Params().Capacity()), topo.NumServers())
	if err != nil {
		t.Fatal(err)
	}
	defer bank.Close()
	dr, err := core.NewDriver(topo, cfg, bank)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Property: on random instances the two engines always agree on the
// summary outcome.
func TestQuickEnginesAgree(t *testing.T) {
	f := func(seed uint64, nRaw uint8, tight bool) bool {
		n := 64 + int(nRaw%64)
		g, err := gen.Regular(n, 12, rng.New(seed))
		if err != nil {
			return false
		}
		c := 4.0
		if tight {
			c = 2.0
		}
		cfg := core.Config{Variant: core.RAES, D: 2, C: c, Seed: seed ^ 0xbeef}
		fast, err := cfg.Run(g)
		if err != nil {
			return false
		}
		slow, err := Run(g, cfg)
		if err != nil {
			return false
		}
		return fast.Rounds == slow.Rounds && fast.MaxLoad == slow.MaxLoad &&
			fast.TotalRequests == slow.TotalRequests && fast.BurnedServers == slow.BurnedServers
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
