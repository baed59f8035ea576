package wire

import (
	"bufio"
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
						if lat := bank.RoundLatencies(); len(lat) != ref.Rounds*sessions {
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
// fragment runs — and the run still reproduces the in-process result bit
// for bit. (At the production maxFrameSize the same mechanism carries a
// 256 MB+ batch instead of erroring.)
func TestWireSpillLoopback(t *testing.T) {
	n := 256
	g := testGraph(t, n, 16, 9)
	cfg := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: 0xBEEF, TrackLoads: true}
	ref, err := cfg.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 64 // bytes per frame: a ~250-server batch spills into dozens of fragments
	ss, err := StartLocalSet(2)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	for _, srv := range ss.Servers() {
		srv.SetFrameLimit(limit)
	}
	bank, err := DialConfig(ss.Addrs(), cfg.Variant, int32(cfg.Params().Capacity()), n,
		BankConfig{Sessions: 2, FrameLimit: limit})
	if err != nil {
		t.Fatal(err)
	}
	defer bank.Close()
	runWireSessions(t, g, cfg, bank, ref, "spill limit=64")
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

// TestSplitWindows pins the shard-window split: contiguous, ascending,
// sizes within one of each other, covering [0, m).
func TestSplitWindows(t *testing.T) {
	for _, tc := range []struct{ m, shards int }{{10, 3}, {7, 7}, {1, 1}, {4096, 8}} {
		ws, err := SplitWindows(tc.m, tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		if len(ws) != tc.shards {
			t.Fatalf("m=%d shards=%d: %d windows", tc.m, tc.shards, len(ws))
		}
		lo, minSize, maxSize := 0, tc.m, 0
		for _, w := range ws {
			if w[0] != lo {
				t.Fatalf("m=%d shards=%d: window %v not contiguous at %d", tc.m, tc.shards, w, lo)
			}
			size := w[1] - w[0]
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
			lo = w[1]
		}
		if lo != tc.m || maxSize-minSize > 1 {
			t.Fatalf("m=%d shards=%d: windows %v", tc.m, tc.shards, ws)
		}
	}
	if _, err := SplitWindows(4, 5); err == nil {
		t.Fatal("SplitWindows accepted more shards than servers")
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
}

// TestWireDecideRoundRejectsBadBatch sends batches that break
// DecideRound's contract — an id at or past m, a negative id, and pairs
// out of order inside one window and across two — over two shards. Each
// must come back as an error, with no panic on either side, and the
// session must decide a valid round afterwards (a shard that rejected a
// batch closed its connection; the next call redials it).
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
}

// TestWireRejectedRoundLeavesBank pins the window check before the
// calls: [3, 256] over two shards at m = 256 has an id past the last
// window, so the round fails before shard 0 is sent its valid [3], and
// server 3 keeps a load of 0.
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
}

// TestWireDecideRoundDoesNotAllocate pins the session's decision buffers
// and its reused per-shard calls: on a warmed session, a round that
// accepts some servers and burns others allocates nothing, in the client
// or in the in-process servers. Each round starts from a reset, so the
// decision lists are never empty.
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
	// The session's latency log grows by one entry per round; warm it
	// past the measured rounds so its growth does not show.
	for range 300 {
		round()
	}
	if avg := testing.AllocsPerRun(100, round); avg != 0 {
		t.Errorf("DecideRound allocates %.1f times per round", avg)
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
