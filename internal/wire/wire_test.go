package wire

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

func testGraph(t testing.TB, n, delta int, seed uint64) *bipartite.Graph {
	t.Helper()
	g, err := gen.Regular(n, delta, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// startWire brings up a fresh in-process server set of `shards`
// listeners and dials a Bank to it.
func startWire(t *testing.T, cfg core.Config, m, shards int, bcfg BankConfig) (*Bank, *ServerSet) {
	t.Helper()
	ss, err := StartLocalSet(shards)
	if err != nil {
		t.Fatal(err)
	}
	bank, err := DialConfig(ss.Addrs(), cfg.Variant, int32(cfg.Params().Capacity()), m, bcfg)
	if err != nil {
		ss.Close()
		t.Fatal(err)
	}
	return bank, ss
}

// runWire executes cfg on topo through a Driver over a Bank dialed to a
// fresh in-process server set of `shards` listeners.
func runWire(t *testing.T, topo bipartite.Topology, cfg core.Config, shards int) (*core.Result, *Bank, *ServerSet) {
	t.Helper()
	bank, ss := startWire(t, cfg, topo.NumServers(), shards, BankConfig{})
	dr, err := core.NewDriver(topo, cfg, bank)
	if err != nil {
		bank.Close()
		ss.Close()
		t.Fatal(err)
	}
	res, err := dr.Run()
	if err != nil {
		bank.Close()
		ss.Close()
		t.Fatal(err)
	}
	return res, bank, ss
}

// runWireSessions runs one trial per session concurrently — every
// session drives its own Driver with the same seed over the shared
// connections — and requires each session's result to equal ref.
func runWireSessions(t *testing.T, g bipartite.Topology, cfg core.Config, bank *Bank, ref *core.Result, label string) {
	t.Helper()
	sessions := bank.Sessions()
	results := make([]*core.Result, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			dr, err := core.NewDriver(g, cfg, bank.Session(s))
			if err != nil {
				errs[s] = err
				return
			}
			results[s], errs[s] = dr.Run()
		}(s)
	}
	wg.Wait()
	for s := 0; s < sessions; s++ {
		if errs[s] != nil {
			t.Fatalf("%s session %d: %v", label, s, errs[s])
		}
		if !reflect.DeepEqual(results[s], ref) {
			t.Errorf("%s session %d: wire run diverges from in-process run:\n  ref=%+v\n  got=%+v",
				label, s, ref, results[s])
		}
	}
}

// TestWireLoopbackEquivalence is the service mode's core contract: a
// loopback wire run — real TCP sockets, one server-shard listener per
// window — reproduces the in-process Config.Run result bit for bit, for
// both variants, across shard counts, client worker counts, and
// multiplexed session counts (every session running the same trial
// concurrently over the shared connections).
func TestWireLoopbackEquivalence(t *testing.T) {
	n := 512
	g := testGraph(t, n, 24, 77)
	for _, variant := range []core.Variant{core.SAER, core.RAES} {
		for _, c := range []float64{4, 2} {
			cfg := core.Config{Variant: variant, D: 2, C: c, Seed: 0xFEED,
				TrackRounds: true, TrackNeighborhoods: true, TrackLoads: true, TrackAssignments: true}
			ref, err := cfg.Run(g)
			if err != nil {
				t.Fatal(err)
			}
			// The full workers × sessions cross runs on one (variant, c)
			// cell; the others pin the multi-worker multi-session shape.
			workersList, sessionsList := []int{2}, []int{2}
			if variant == core.SAER && c == 4 {
				workersList, sessionsList = []int{1, 2, 4}, []int{1, 2}
			}
			for _, shards := range []int{1, 2, 3, 8} {
				for _, workers := range workersList {
					for _, sessions := range sessionsList {
						wcfg := cfg
						wcfg.Workers = workers
						label := pointLabel(variant, c, shards, workers, sessions)
						bank, ss := startWire(t, wcfg, n, shards, BankConfig{Sessions: sessions, Pipeline: 4})
						runWireSessions(t, g, wcfg, bank, ref, label)
						if lat, _ := bank.TakeMetrics(); len(lat) != ref.Rounds*sessions {
							t.Errorf("%s: %d latency samples for %d rounds × %d sessions",
								label, len(lat), ref.Rounds, sessions)
						}
						reps, err := bank.Reports()
						if err != nil {
							t.Fatal(err)
						}
						var reqs uint64
						for _, rep := range reps {
							reqs += rep.Requests
						}
						if reqs != uint64(ref.TotalRequests)*uint64(sessions) {
							t.Errorf("%s: shard reports carry %d requests, want %d × %d sessions",
								label, reqs, ref.TotalRequests, sessions)
						}
						bank.Close()
						if err := ss.Close(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
}

// TestWireDenseLoopbackEquivalence extends the loopback contract to the
// dense exchange: on a point-query topology of 1,000 servers, whose
// windows over 2 and 3 shards start and end inside groups of 8 and
// inside bitmap words, the Driver ships its counted rounds densely (a
// recording wrapper counts them), and every session of a two-session
// bank reproduces the in-process result bit for bit for both variants
// at 1 and 2 workers, with request counts, initial loads at and above
// the capacity and full tracking on. The same trials with every round
// shipped as pairs (a wrapper with only the ServerBank methods, the
// shape of a timing wrapper) must leave the shard servers' Reports
// (rounds, requests, accepted) and the bank's request total and
// latency sample count exactly as the dense ones do.
func TestWireDenseLoopbackEquivalence(t *testing.T) {
	const n, m = 1200, 1000
	topo, err := gen.TrustSubsetImplicit(n, m, 16, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []core.Variant{core.SAER, core.RAES} {
		cfg := core.Config{Variant: variant, D: 3, C: 2, Seed: 0xD3, TrackRounds: true, TrackNeighborhoods: true,
			TrackLoads: true, TrackAssignments: true, InitialLoads: make([]int, m), RequestCounts: make([]int, n)}
		src := rng.New(8)
		for u := range cfg.InitialLoads {
			cfg.InitialLoads[u] = src.Intn(cfg.Params().Capacity() + 3)
		}
		for v := range cfg.RequestCounts {
			cfg.RequestCounts[v] = src.Intn(cfg.D + 1)
		}
		ref, err := cfg.Run(topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3} {
			for _, workers := range []int{1, 2} {
				wcfg := cfg
				wcfg.Workers = workers
				label := pointLabel(variant, cfg.C, shards, workers, 2)
				var reports [2][]Report
				var reqs [2]int64
				var lats [2]int
				for k, pairs := range []bool{false, true} {
					bank, ss := startWire(t, wcfg, m, shards, BankConfig{Sessions: 2, Pipeline: 4})
					results := make([]*core.Result, 2)
					dense := make([]int, 2)
					errs := make([]error, 2)
					var wg sync.WaitGroup
					for s := range 2 {
						wg.Add(1)
						go func() {
							defer wg.Done()
							var sb core.ServerBank = &denseCounter{Session: bank.Session(s), rounds: &dense[s]}
							if pairs {
								sb = pairsOnly{bank.Session(s)}
							}
							dr, err := core.NewDriver(topo, wcfg, sb)
							if err == nil {
								results[s], err = dr.Run()
							}
							errs[s] = err
						}()
					}
					wg.Wait()
					for s := range 2 {
						if errs[s] != nil {
							t.Fatalf("%s pairs=%t session %d: %v", label, pairs, s, errs[s])
						}
						if !reflect.DeepEqual(results[s], ref) {
							t.Errorf("%s pairs=%t session %d: wire run diverges from the in-process run", label, pairs, s)
						}
						if !pairs && dense[s] == 0 {
							t.Errorf("%s session %d: no round shipped densely", label, s)
						}
					}
					if reports[k], err = bank.Reports(); err != nil {
						t.Fatal(err)
					}
					var lat []time.Duration
					lat, reqs[k] = bank.TakeMetrics()
					lats[k] = len(lat)
					bank.Close()
					if err := ss.Close(); err != nil {
						t.Fatal(err)
					}
				}
				for i := range reports[0] {
					d, p := reports[0][i], reports[1][i]
					if d.Rounds != p.Rounds || d.Requests != p.Requests || d.Accepted != p.Accepted {
						t.Errorf("%s shard %d: dense Report %+v, pairs %+v", label, i, d, p)
					}
				}
				if reqs[0] != reqs[1] || reqs[0] != 2*ref.TotalRequests || lats[0] != lats[1] || lats[0] != 2*ref.Rounds {
					t.Errorf("%s: dense %d requests / %d latency samples, pairs %d / %d, want %d / %d",
						label, reqs[0], lats[0], reqs[1], lats[1], 2*ref.TotalRequests, 2*ref.Rounds)
				}
			}
		}
	}
}

// TestCheckWindowReply pins the session's check of one shard's answer
// to a counted round for window [3, 70), 67 servers in two bitmap
// words: the word count, no accept bit past the window's last server,
// and newly burned servers inside the window.
func TestCheckWindowReply(t *testing.T) {
	const lo, hi = 3, 70
	for _, tc := range []struct {
		name   string
		words  []uint64
		burned []int32
		ok     bool
	}{
		{"valid", []uint64{^uint64(0), 1<<3 - 1}, []int32{3, 69}, true},
		{"one word short", []uint64{^uint64(0)}, nil, false},
		{"one word long", []uint64{0, 0, 0}, nil, false},
		{"bit past the window", []uint64{0, 1 << 3}, nil, false},
		{"burned below the window", []uint64{0, 0}, []int32{2}, false},
		{"burned past the window", []uint64{0, 0}, []int32{5, 70}, false},
	} {
		if err := checkWindowReply(tc.words, tc.burned, lo, hi); (err == nil) != tc.ok {
			t.Errorf("%s: checkWindowReply gave %v", tc.name, err)
		}
	}
}

// denseCounter counts the rounds a Driver ships to a session densely.
type denseCounter struct {
	*Session
	rounds *int
}

func (d *denseCounter) DecideCounted(counts []uint8, wraps []int32) (core.CountedDecision, error) {
	*d.rounds++
	return d.Session.DecideCounted(counts, wraps)
}

// pairsOnly exposes only the four core.ServerBank methods of the bank
// it wraps, so its Driver ships every round as pairs.
type pairsOnly struct{ core.ServerBank }

func pointLabel(variant core.Variant, c float64, shards, workers, sessions int) string {
	return fmt.Sprintf("variant=%v c=%g shards=%d workers=%d sessions=%d",
		variant, c, shards, workers, sessions)
}

// rowOnlyTopo hides a topology's point-query support, forcing the
// Driver onto the whole-row regeneration path (the wire twin of
// internal/core's rowOnly test wrapper).
type rowOnlyTopo struct{ bipartite.Topology }

// TestWireLoopbackPointQuery covers the point-query draw path over the
// wire: an implicit point-queryable topology driven through real TCP
// sockets must reproduce the in-process result bit for bit — on the
// point-query path and, via the row-only wrapper, on the
// row-regeneration path, so the two access paths also agree end to end
// across the transport.
func TestWireLoopbackPointQuery(t *testing.T) {
	topo, err := gen.TrustSubsetImplicit(512, 512, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Variant: core.SAER, D: 2, C: 2.5, Seed: 0xFEED, Workers: 2, TrackRounds: true, TrackLoads: true}
	ref, err := cfg.Run(topo)
	if err != nil {
		t.Fatal(err)
	}
	paths := []struct {
		name string
		topo bipartite.Topology
	}{{"point-query", topo}, {"row-regen", rowOnlyTopo{topo}}}
	for _, path := range paths {
		for _, shards := range []int{1, 3} {
			res, bank, ss := runWire(t, path.topo, cfg, shards)
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("%s shards=%d: wire run diverges from in-process run:\n  ref=%+v\n  got=%+v",
					path.name, shards, ref, res)
			}
			bank.Close()
			if err := ss.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestWireDynamicState exercises the epoch shape the churn executor
// ships: pre-loaded servers (some burned from the start) and per-client
// request counts.
func TestWireDynamicState(t *testing.T) {
	n := 256
	g := testGraph(t, n, 16, 31)
	cfg := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: 13, TrackLoads: true, TrackRounds: true}
	cfg.InitialLoads = make([]int, n)
	cfg.RequestCounts = make([]int, n)
	src := rng.New(42)
	capacity := cfg.Params().Capacity()
	for i := 0; i < n; i++ {
		cfg.InitialLoads[i] = src.Intn(capacity + 2)
		cfg.RequestCounts[i] = src.Intn(cfg.D + 1)
	}
	ref, err := cfg.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	res, bank, ss := runWire(t, g, cfg, 3)
	defer ss.Close()
	defer bank.Close()
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("dynamic state wire run diverges:\n  ref=%+v\n  got=%+v", ref, res)
	}
}

// TestWireResetRejectsLoadOverflow pins the InitialLoads bound on the
// wire bank: a load above MaxInt32 would wrap in the frame's int32, so
// Session.Reset refuses it and names the server, and a MaxInt32 load
// crosses the wire intact and runs exactly as in process.
func TestWireResetRejectsLoadOverflow(t *testing.T) {
	n := 64
	g := testGraph(t, n, 8, 7)
	loads := make([]int, n)
	for u := range loads {
		loads[u] = math.MaxInt32
	}
	for _, variant := range []core.Variant{core.SAER, core.RAES} {
		cfg := core.Config{Variant: variant, D: 2, C: 4, Seed: 3, MaxRounds: 3, TrackLoads: true, InitialLoads: loads}
		bank, ss := startWire(t, cfg, n, 2, BankConfig{})
		bad := slices.Clone(loads)
		bad[40] = 1 << 31
		if err := bank.Session(0).Reset(bad); err == nil {
			t.Errorf("%v: Session.Reset accepted initial load 2^31", variant)
		} else if msg := err.Error(); !strings.Contains(msg, "server 40") || !strings.Contains(msg, "2147483648") {
			t.Errorf("%v: error %q does not name server 40 and its load", variant, msg)
		}
		ref, err := cfg.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := core.NewDriver(g, cfg, bank)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dr.Run()
		if err != nil {
			t.Errorf("%v: wire run with MaxInt32 loads: %v", variant, err)
		} else if !reflect.DeepEqual(res, ref) {
			t.Errorf("%v: wire run diverges:\n  ref=%+v\n  got=%+v", variant, ref, res)
		}
		bank.Close()
		ss.Close()
	}
}

// TestWireSpillLoopback pins frame spilling end to end: with the frame
// limit lowered far below a round batch's size on both sides, every
// Decide request and every reply crosses the sockets as continuation
// fragment runs — pair batches on a CSR graph, and a dense counted round
// on a point-query topology — and the run still reproduces the
// in-process result bit for bit. (At the production maxFrameSize the same mechanism carries a
// 256 MB+ batch instead of erroring.)
func TestWireSpillLoopback(t *testing.T) {
	n := 256
	g := testGraph(t, n, 16, 9)
	// On the point-query topology two workers count round 1, which ships
	// densely: its window counts and bitmaps spill too.
	pq, err := gen.TrustSubsetImplicit(n, n, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 64 // bytes per frame: a ~250-server batch spills into dozens of fragments
	for _, tc := range []struct {
		name    string
		topo    bipartite.Topology
		workers int
	}{{"pairs", g, 0}, {"dense", pq, 2}} {
		cfg := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: 0xBEEF, TrackLoads: true, Workers: tc.workers}
		ref, err := cfg.Run(tc.topo)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := StartLocalSet(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, srv := range ss.Servers() {
			srv.SetFrameLimit(limit)
		}
		bank, err := DialConfig(ss.Addrs(), cfg.Variant, int32(cfg.Params().Capacity()), n,
			BankConfig{Sessions: 2, FrameLimit: limit})
		if err != nil {
			ss.Close()
			t.Fatal(err)
		}
		runWireSessions(t, tc.topo, cfg, bank, ref, "spill limit=64 "+tc.name)
		bank.Close()
		ss.Close()
	}
}

// TestWireDriverReuse pins trial reuse over one set of live servers: the
// bank is Reset per run, so successive Reseed+Run trials on the same
// sessions match fresh in-process runs.
func TestWireDriverReuse(t *testing.T) {
	g := testGraph(t, 256, 16, 3)
	cfg := core.Config{Variant: core.RAES, D: 2, C: 3, TrackLoads: true}
	ss, err := StartLocalSet(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	bank, err := Dial(ss.Addrs(), cfg.Variant, int32(cfg.Params().Capacity()), g.NumServers())
	if err != nil {
		t.Fatal(err)
	}
	defer bank.Close()
	dr, err := core.NewDriver(g, cfg, bank)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		dr.Reseed(seed)
		got, err := dr.Run()
		if err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.Seed = seed
		want, err := rcfg.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed=%d: reused wire driver diverges from fresh in-process run", seed)
		}
	}
	reps, err := bank.Reports()
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps {
		if rep.Sessions != 1 {
			t.Errorf("shard %d served %d sessions across 4 trials, want 1 (pooled connection)", i, rep.Sessions)
		}
	}
}

// TestWireRedialBackoff pins the bounded-backoff reconnection: the only
// server is killed and a cold replacement comes up on the same address
// only after a delay, so the next trial's Reset finds the connection
// dead, gets refused on its first redial attempts, and must ride the
// jittered backoff until the listener returns.
func TestWireRedialBackoff(t *testing.T) {
	g := testGraph(t, 128, 8, 21)
	cfg := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: 5}
	ref, err := cfg.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	go srv.Serve()
	bank, err := DialConfig([]string{addr}, cfg.Variant, int32(cfg.Params().Capacity()), g.NumServers(),
		BankConfig{RedialAttempts: 6, RedialBackoff: 10 * time.Millisecond})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	defer bank.Close()
	dr, err := core.NewDriver(g, cfg, bank)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	if _, err := dr.Run(); err != nil {
		srv.Close()
		t.Fatal(err)
	}

	// Kill the process and bring the replacement up only after a delay:
	// the immediate redial attempt is refused.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var srv2 *Server
	done := make(chan error, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		s, err := Listen(addr)
		if err != nil {
			done <- err
			return
		}
		mu.Lock()
		srv2 = s
		mu.Unlock()
		done <- nil
		s.Serve()
	}()
	defer func() {
		mu.Lock()
		if srv2 != nil {
			srv2.Close()
		}
		mu.Unlock()
	}()

	got, err := dr.Run()
	if err != nil {
		t.Fatalf("run across delayed restart: %v", err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("run across delayed restart diverges from in-process result")
	}
	if err := <-done; err != nil {
		t.Fatalf("restarting server on %s: %v", addr, err)
	}
}

// wireChurnScenario drives one scripted failure-wave scenario (the E16
// shape: stable population, full redemand, one fail wave and one recover
// wave) on a fresh topology and scheduler, returning every epoch's
// outcome. The executor factory selects in-process vs wire execution;
// onEpoch (optional) runs between epochs — the kill/restart hook.
func wireChurnScenario(t *testing.T, policy churn.Policy, factory func(*churn.Topology, core.Config) (churn.Executor, error), onEpoch func(epoch int)) []churn.EpochOutcome {
	t.Helper()
	n, delta := 256, 16
	epochs := 9
	src := rng.New(11)
	base, err := gen.TrustSubsetImplicit(n, n, delta, src.Uint64())
	if err != nil {
		t.Fatal(err)
	}
	topo, err := churn.New(churn.Config{
		Base:    base,
		Sampler: churn.TrustSampler(n, delta),
		Seed:    src.Uint64(),
		Backend: churn.BackendImplicit,
	})
	if err != nil {
		t.Fatal(err)
	}
	proto := core.Config{Variant: core.SAER, D: 2, C: 4, Workers: 1}
	sch, err := churn.NewScheduler(topo, churn.SchedulerConfig{
		Protocol:    proto,
		LoadExpiry:  0.5,
		Policy:      policy,
		TrackRounds: true,
		NewExecutor: factory,
	}, src.Uint64())
	if err != nil {
		t.Fatal(err)
	}
	var wave []int32
	outs := make([]churn.EpochOutcome, 0, epochs)
	for e := 1; e <= epochs; e++ {
		ev := churn.EpochEvent{Dt: 1, RedemandAll: true}
		ev.Rewire = topo.SamplePresent(src, n/10)
		switch e {
		case 4:
			wave = topo.SampleLive(src, n/4)
			ev.Fail = wave
		case 7:
			ev.Recover = wave
		}
		out, err := sch.Step(ev)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, *out)
		if onEpoch != nil {
			onEpoch(e)
		}
	}
	return outs
}

// TestWireChurnFailureWaveKillRestart is the process-kill failure wave:
// the same E16-style scenario runs once in process and once against live
// shard servers, where one shard server is killed right before the
// scenario's fail wave and restarted — cold, same address, and only
// after a delay, so the wave epoch's Reset hits refused connections and
// must redial through the bounded backoff. Every failed-load policy must
// produce bit-for-bit the in-process scheduler's epoch outcomes — the
// per-epoch Reset rebuilds server state, so a process restart is
// invisible to the protocol.
func TestWireChurnFailureWaveKillRestart(t *testing.T) {
	ss, err := StartLocalSet(3)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	addrs := ss.Addrs()

	// shard1 tracks whichever process currently serves addrs[1]; each
	// policy's scenario kills it and brings up a cold replacement on the
	// same address after a delay.
	var mu sync.Mutex
	shard1 := ss.Servers()[1]
	defer func() {
		mu.Lock()
		shard1.Close()
		mu.Unlock()
	}()

	factory := NewExecutorFactoryConfig(addrs, BankConfig{
		RedialAttempts: 6,
		RedialBackoff:  10 * time.Millisecond,
	})
	for _, policy := range []churn.Policy{churn.PolicyDrop, churn.PolicyReinject, churn.PolicySaturate} {
		ref := wireChurnScenario(t, policy, nil, nil)

		restarted := make(chan error, 1)
		onEpoch := func(epoch int) {
			if epoch != 3 {
				return
			}
			// Kill shard 1 between epochs; the replacement binds the same
			// address 30ms later, while the wave epoch's Reset is already
			// retrying.
			mu.Lock()
			err := shard1.Close()
			mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				time.Sleep(30 * time.Millisecond)
				srv, err := Listen(addrs[1])
				if err != nil {
					restarted <- err
					return
				}
				mu.Lock()
				shard1 = srv
				mu.Unlock()
				restarted <- nil
				srv.Serve()
			}()
		}
		got := wireChurnScenario(t, policy, factory, onEpoch)
		if err := <-restarted; err != nil {
			t.Fatalf("policy=%v: restarting shard 1 on %s: %v", policy, addrs[1], err)
		}

		if !reflect.DeepEqual(got, ref) {
			for i := range ref {
				if i < len(got) && !reflect.DeepEqual(got[i], ref[i]) {
					t.Errorf("policy=%v epoch %d: wire scenario diverges from in-process:\n  ref=%+v\n  got=%+v",
						policy, i+1, ref[i], got[i])
					break
				}
			}
			if len(got) != len(ref) {
				t.Errorf("policy=%v: %d epochs vs %d", policy, len(got), len(ref))
			}
		}
	}
}

// TestServerRejectsBadHello pins the handshake guard: wrong magic gets
// an error frame, not silence.
func TestServerRejectsBadHello(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	fc := &frameConn{r: bufio.NewReader(conn), w: bw, limit: maxFrameSize}
	var payload []byte
	payload = appendU32(payload, 0xDEADBEEF) // wrong magic
	payload = appendU32(payload, protoVersion)
	payload = append(payload, 0)
	payload = appendI32(payload, 8)
	payload = appendI32(payload, 0)
	payload = appendI32(payload, 4)
	if err := fc.writeMessage(msgHello, 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fc.expectMessage(msgHelloOK); err == nil {
		t.Fatal("server accepted a hello with the wrong magic")
	}

	// A version-2 client, whose frames lack the counted round, is turned
	// away at the handshake with an error frame.
	conn2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	bw2 := bufio.NewWriter(conn2)
	fc2 := &frameConn{r: bufio.NewReader(conn2), w: bw2, limit: maxFrameSize}
	v2 := appendHello(nil, hello{magic: helloMagic, version: 2, capacity: 8, lo: 0, hi: 4})
	if err := fc2.writeMessage(msgHello, 0, v2); err != nil {
		t.Fatal(err)
	}
	if err := bw2.Flush(); err != nil {
		t.Fatal(err)
	}
	_, _, err = fc2.expectMessage(msgHelloOK)
	var se *serverError
	if !errors.As(err, &se) || !strings.Contains(se.msg, "protocol version 2") {
		t.Fatalf("version-2 hello: got %v, want an error frame naming version 2", err)
	}
}

// TestServerRejectsBadCountedFrame sends counted frames that break the
// dense contract straight to a server, past the client's own check,
// for a window [3, 20): a byte vector one short or one long, wrap
// entries unsorted, below the window or past it, and a truncated
// payload. Each must come back as an error frame, with no panic, while
// a valid frame on a fresh connection is decided. (Wraps that take a
// cell past MaxInt32 need 2²³ entries; TestLocalBankRejectedRoundLeavesBank
// sends them to ServerShard.DecideCounted, the server's decide.)
func TestServerRejectsBadCountedFrame(t *testing.T) {
	srv, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go srv.Serve()
	const lo, hi = 3, 20
	counts := make([]uint8, hi-lo)
	counts[0], counts[16] = 2, 255
	send := func(payload []byte) error {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		bw := bufio.NewWriter(conn)
		fc := &frameConn{r: bufio.NewReader(conn), w: bw, limit: maxFrameSize}
		fc.writeMessage(msgHello, 0, appendHello(nil, hello{magic: helloMagic, version: protoVersion, capacity: 8, lo: lo, hi: hi}))
		fc.writeMessage(msgReset, 0, []byte{0})
		fc.writeMessage(msgCounted, 0, payload)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, want := range []byte{msgHelloOK, msgResetOK} {
			if _, _, err := fc.expectMessage(want); err != nil {
				t.Fatal(err)
			}
		}
		_, p, err := fc.expectMessage(msgCountedReply)
		if err == nil {
			words, nb, sat, err := decodeCountedReply(p, nil, nil)
			if err != nil || len(words) != 1 || words[0] != 1 || !slices.Equal(nb, []int32{19}) || sat != 1 {
				t.Fatalf("valid counted frame: reply %v %v %d, %v", words, nb, sat, err)
			}
		}
		return err
	}
	if err := send(appendCounted(nil, counts, nil)); err != nil {
		t.Fatalf("valid counted frame: %v", err)
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"one short", appendCounted(nil, counts[1:], nil)},
		{"one long", appendCounted(nil, append(slices.Clone(counts), 0), nil)},
		{"unsorted wraps", appendCounted(nil, counts, []int32{5, 2})},
		{"wrap below the window", appendCounted(nil, counts, []int32{-1})},
		{"wrap past the window", appendCounted(nil, counts, []int32{hi - lo})},
		{"truncated", appendCounted(nil, counts, []int32{1})[:hi-lo+6]},
	} {
		var se *serverError
		if err := send(tc.payload); !errors.As(err, &se) {
			t.Errorf("%s: got %v, want an error frame", tc.name, err)
		}
	}
}

// TestWireDecideRoundRejectsBadBatch sends batches that break
// DecideRound's contract — an id at or past m, a negative id, and pairs
// out of order inside one window and across two — over two shards. Each
// must come back as an error, with no panic on either side, and the
// session must decide a valid round afterwards (a shard that rejected a
// batch closed its connection; the next call redials it). The counted
// rounds break DecideCounted's: a byte vector one short or one long and
// wrap entries unsorted, at m or negative; the session rejects them
// before it sends anything (TestServerRejectsBadCountedFrame sends them
// to a server), and then decides a valid counted round.
func TestWireDecideRoundRejectsBadBatch(t *testing.T) {
	const m = 256
	bank, ss := startWire(t, core.Config{Variant: core.SAER, D: 2, C: 4}, m, 2, BankConfig{})
	defer ss.Close()
	defer bank.Close()
	for _, tc := range []struct {
		name            string
		touched, counts []int32
	}{
		{"id m", []int32{3, m}, []int32{1, 1}},
		{"id far past m", []int32{math.MaxInt32}, []int32{1}},
		{"negative id", []int32{-1, 3}, []int32{1, 1}},
		{"unsorted pair in one window", []int32{9, 4}, []int32{1, 1}},
		{"unsorted pair across windows", []int32{200, 4}, []int32{1, 1}},
		{"unsorted pair past a window", []int32{4, 200, 150, 255}, []int32{1, 1, 1, 1}},
	} {
		if err := bank.Reset(nil); err != nil {
			t.Fatalf("%s: reset: %v", tc.name, err)
		}
		if _, err := bank.DecideRound(tc.touched, tc.counts); err == nil {
			t.Fatalf("%s: DecideRound(%v) accepted the batch", tc.name, tc.touched)
		}
		if err := bank.Reset(nil); err != nil {
			t.Fatalf("%s: reset after the rejection: %v", tc.name, err)
		}
		dec, err := bank.DecideRound([]int32{1, 200}, []int32{2, 3})
		if err != nil || !slices.Equal(dec.Accepted, []int32{1, 200}) {
			t.Fatalf("%s: valid round after the rejection: %+v, %v", tc.name, dec, err)
		}
	}
	counts := make([]uint8, m)
	counts[1], counts[200] = 2, 3
	for _, tc := range []struct {
		name   string
		counts []uint8
		wraps  []int32
	}{
		{"counted one short", counts[:m-1], nil},
		{"counted one long", append(slices.Clone(counts), 0), nil},
		{"counted wraps unsorted", counts, []int32{200, 1}},
		{"counted wrap at m", counts, []int32{m}},
		{"counted negative wrap", counts, []int32{-1}},
	} {
		if err := bank.Reset(nil); err != nil {
			t.Fatalf("%s: reset: %v", tc.name, err)
		}
		if _, err := bank.DecideCounted(tc.counts, tc.wraps); err == nil {
			t.Fatalf("%s: DecideCounted accepted the round", tc.name)
		}
		if err := bank.Reset(nil); err != nil {
			t.Fatalf("%s: reset after the rejection: %v", tc.name, err)
		}
		dec, err := bank.DecideCounted(counts, nil)
		if err != nil || dec.Accepted[0] != 1<<1 || dec.Accepted[3] != 1<<(200&63) {
			t.Fatalf("%s: valid counted round after the rejection: %+v, %v", tc.name, dec, err)
		}
	}
}

// TestWireRejectedRoundLeavesBank pins the window check before the
// calls: [3, 256] over two shards at m = 256 has an id past the last
// window, so the round fails before shard 0 is sent its valid [3], and
// server 3 keeps a load of 0; so does a counted round with a wrap entry
// past m.
func TestWireRejectedRoundLeavesBank(t *testing.T) {
	const m = 256
	bank, ss := startWire(t, core.Config{Variant: core.SAER, D: 2, C: 4}, m, 2, BankConfig{})
	defer ss.Close()
	defer bank.Close()
	if err := bank.Reset(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := bank.DecideRound([]int32{3, m}, []int32{2, 2}); err == nil {
		t.Fatal("DecideRound accepted a server past the last window")
	}
	loads, err := bank.Loads()
	if err != nil {
		t.Fatal(err)
	}
	if loads[3] != 0 {
		t.Fatalf("server 3 has load %d after a rejected round", loads[3])
	}
	// A counted round whose part for shard 1 has a wrap entry past m
	// fails before shard 0 is sent its valid counts.
	counts := make([]uint8, m)
	counts[3] = 2
	if _, err := bank.DecideCounted(counts, []int32{200, m}); err == nil {
		t.Fatal("DecideCounted accepted a wrap entry past the last window")
	}
	if loads, err = bank.Loads(); err != nil {
		t.Fatal(err)
	}
	if loads[3] != 0 || loads[200] != 0 {
		t.Fatalf("servers 3 and 200 have loads %d and %d after a rejected counted round", loads[3], loads[200])
	}
}

// TestWireDecideRoundDoesNotAllocate pins the session's decision buffers
// and its reused per-shard calls: on a warmed session, a round that
// accepts some servers and burns others allocates nothing, in the client
// or in the in-process servers, as pairs or densely. Each round starts
// from a reset, so the decision lists are never empty.
func TestWireDecideRoundDoesNotAllocate(t *testing.T) {
	const m = 256
	bank, ss := startWire(t, core.Config{Variant: core.RAES, D: 2, C: 4}, m, 2, BankConfig{})
	defer ss.Close()
	defer bank.Close()
	touched, counts := []int32{1, 5, 100, 130, 200, 255}, []int32{1, 9, 1, 1, 9, 1}
	round := func() {
		if err := bank.Reset(nil); err != nil {
			t.Fatal(err)
		}
		dec, err := bank.DecideRound(touched, counts)
		if err != nil || len(dec.Accepted) != 4 || len(dec.NewlyBurned) != 2 {
			t.Fatalf("decision %+v, %v", dec, err)
		}
	}
	dense := make([]uint8, m)
	for i, u := range touched {
		dense[u] = uint8(counts[i])
	}
	denseRound := func() {
		if err := bank.Reset(nil); err != nil {
			t.Fatal(err)
		}
		dec, err := bank.DecideCounted(dense, nil)
		if err != nil || !slices.Equal(dec.NewlyBurned, []int32{5, 200}) || dec.Accepted[2] != 1<<(130&63) {
			t.Fatalf("dense decision %+v, %v", dec, err)
		}
	}
	for _, r := range []struct {
		name string
		fn   func()
	}{{"DecideRound", round}, {"DecideCounted", denseRound}} {
		// The session's latency log grows by one entry per round; warm
		// it past the measured rounds so its growth does not show.
		for range 300 {
			r.fn()
		}
		if avg := testing.AllocsPerRun(100, r.fn); avg != 0 {
			t.Errorf("%s allocates %.1f times per round", r.name, avg)
		}
	}
}

// TestWireLoadsReusesBuffer pins the session-owned load vector: after a
// run, two consecutive Loads calls both equal the in-process
// LocalBank's vector at the same seed.
func TestWireLoadsReusesBuffer(t *testing.T) {
	g := testGraph(t, 512, 16, 5)
	cfg := core.Config{Variant: core.SAER, D: 2, C: 2, Seed: 9}
	bank, ss := startWire(t, cfg, g.NumServers(), 3, BankConfig{})
	defer ss.Close()
	defer bank.Close()
	dr, err := core.NewDriver(g, cfg, bank)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dr.Run(); err != nil {
		t.Fatal(err)
	}
	local, err := core.NewLocalBank(cfg.Variant, int32(cfg.Params().Capacity()), g.NumServers(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ldr, err := core.NewDriver(g, cfg, local)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ldr.Run(); err != nil {
		t.Fatal(err)
	}
	want, err := local.Loads()
	if err != nil {
		t.Fatal(err)
	}
	for call := 1; call <= 2; call++ {
		got, err := bank.Loads()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Loads call %d differs from the LocalBank vector", call)
		}
	}
}

// TestSessionResetIsConcurrent pins that a Session begins every shard's
// reset before waiting for any reply. Two stub shards answer the
// handshake, then answer a Reset only once both have received theirs; a
// stub whose partner's Reset has not arrived by the deadline closes its
// connection instead. A Reset that waited for shard 0's reply before
// sending shard 1's would get no reply from shard 0, so it fails (its
// one retry fails the same way); a concurrent one succeeds.
func TestSessionResetIsConcurrent(t *testing.T) {
	const shards = 2
	var arrived sync.WaitGroup
	arrived.Add(shards)
	both := make(chan struct{})
	go func() {
		arrived.Wait()
		close(both)
	}()
	var once [shards]sync.Once
	addrs := make([]string, shards)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
		go func(i int) {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go stubResetShard(conn, func() { once[i].Do(arrived.Done) }, both)
			}
		}(i)
	}
	bank, err := DialConfig(addrs, core.SAER, 8, 64, BankConfig{RedialAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer bank.Close()
	if err := bank.Reset(nil); err != nil {
		t.Fatalf("reset over two shards that each wait for the other: %v", err)
	}
}

// stubResetShard serves one connection of TestSessionResetIsConcurrent's
// stub shard: it accepts the Hello and, on a Reset, reports the arrival
// and replies once both is closed, or closes the connection after a
// deadline.
func stubResetShard(conn net.Conn, arrive func(), both <-chan struct{}) {
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	fc := &frameConn{r: bufio.NewReader(conn), w: bw, limit: maxFrameSize}
	for {
		typ, sid, _, err := fc.readMessage()
		if err != nil {
			return
		}
		reply := byte(msgHelloOK)
		if typ == msgReset {
			arrive()
			select {
			case <-both:
			case <-time.After(2 * time.Second):
				return
			}
			reply = msgResetOK
		} else if typ != msgHello {
			return
		}
		if fc.writeMessage(reply, sid, nil) != nil || bw.Flush() != nil {
			return
		}
	}
}
