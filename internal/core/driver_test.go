package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
	"repro/internal/rng"
)

// driverEquivalenceCase runs the same configuration through the Runner
// (one-shard reference) and through Driver+LocalBank across
// client worker counts and shard counts, and fails unless every Result —
// PerRound series, load vectors, assignments, all of it — is bit-for-bit
// identical. This is the contract the wire transport inherits: the
// Driver is its client side (its phases fan out over the worker pool),
// the LocalBank stands where the remote shard processes will.
func driverEquivalenceCase(t *testing.T, name string, topo bipartite.Topology, cfg Config) {
	t.Helper()
	ref, err := oneShard(cfg).Run(topo)
	if err != nil {
		t.Fatalf("%s: runner reference failed: %v", name, err)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, shards := range []int{1, 2, 3, 8} {
			wcfg := cfg
			wcfg.Workers = workers
			dr, err := NewLocalDriver(topo, wcfg, shards)
			if err != nil {
				t.Fatalf("%s workers=%d shards=%d: %v", name, workers, shards, err)
			}
			got, err := dr.Run()
			if err != nil {
				t.Fatalf("%s workers=%d shards=%d: %v", name, workers, shards, err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: driver workers=%d shards=%d diverges from runner reference:\n  ref=%+v\n  got=%+v",
					name, workers, shards, ref, got)
			}
		}
	}
}

func TestDriverMatchesRunner(t *testing.T) {
	n := 1024
	g := regularGraph(t, n, 40, 77)
	for _, variant := range []Variant{SAER, RAES} {
		// c=4: fast completion; c=2: heavy burning and saturation.
		for _, c := range []float64{4, 2} {
			cfg := Config{Variant: variant, D: 2, C: c, Seed: 0xFEED,
				TrackRounds: true, TrackNeighborhoods: true, TrackLoads: true, TrackAssignments: true}
			driverEquivalenceCase(t, variant.String(), g, cfg)
		}
	}
}

func TestDriverMatchesRunnerIrregularGraph(t *testing.T) {
	g, err := gen.TrustSubset(768, 640, 48, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Variant: SAER, D: 3, C: 3, Seed: 99, TrackRounds: true, TrackLoads: true}
	driverEquivalenceCase(t, "trust-subset", g, cfg)
}

func TestDriverMatchesRunnerDynamicState(t *testing.T) {
	// The churn scheduler's epoch shape: pre-loaded servers (some at or
	// beyond capacity) and per-client request counts, the state a wire
	// executor must carry across epochs.
	n := 512
	g := regularGraph(t, n, 24, 31)
	cfg := Config{Variant: SAER, D: 2, C: 4, Seed: 13, MaxRounds: 300, TrackRounds: true, TrackLoads: true}
	cfg.InitialLoads = make([]int, n)
	cfg.RequestCounts = make([]int, n)
	src := rng.New(42)
	capacity := cfg.Params().Capacity()
	for i := 0; i < n; i++ {
		cfg.InitialLoads[i] = src.Intn(capacity + 2) // some start burned
		cfg.RequestCounts[i] = src.Intn(cfg.D + 1)   // some start finished
	}
	driverEquivalenceCase(t, "dynamic-state", g, cfg)
}

func TestDriverMatchesRunnerStarved(t *testing.T) {
	// The SAER starved-client early exit must fire on the same round.
	b := bipartite.NewBuilder(2, 2)
	b.AddEdge(0, 0).AddEdge(1, 0)
	g, err := b.Build(bipartite.KeepParallelEdges)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Variant: SAER, D: 2, C: 1, Seed: 1, MaxRounds: 50, TrackRounds: true}
	driverEquivalenceCase(t, "starved", g, cfg)
}

func TestDriverMatchesRunnerImplicitTopology(t *testing.T) {
	topo, err := gen.TrustSubsetImplicit(512, 512, 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Variant: RAES, D: 2, C: 3, Seed: 0xBEEF, TrackRounds: true, TrackLoads: true}
	// The bare topology drives the Driver's point-query draw path, the
	// rowOnly wrapper its row-regeneration path; both must match the
	// Runner reference bit for bit.
	driverEquivalenceCase(t, "implicit", topo, cfg)
	driverEquivalenceCase(t, "implicit-row", rowOnly{topo}, cfg)
}

// TestDriverReseedReuse pins the trial-reuse contract: a reused Driver
// (Reseed + Run) matches a fresh one for every seed, including after a
// starved early exit left mid-round state behind.
func TestDriverReseedReuse(t *testing.T) {
	g := regularGraph(t, 256, 16, 3)
	// Two workers: reuse must also reset the parallel phase state.
	cfg := Config{Variant: SAER, D: 2, C: 2, Workers: 2, TrackRounds: true, TrackLoads: true}
	reused, err := NewLocalDriver(g, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		reused.Reseed(seed)
		got, err := reused.Run()
		if err != nil {
			t.Fatal(err)
		}
		fcfg := cfg
		fcfg.Seed = seed
		fresh, err := NewLocalDriver(g, fcfg, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed=%d: reused driver diverges from fresh driver:\n  fresh=%+v\n  reused=%+v", seed, want, got)
		}
	}
}

// TestLocalBankRejectsMalformedBatches pins the bank's input contract —
// the wire server relies on the same checks to reject corrupt frames.
func TestLocalBankRejectsMalformedBatches(t *testing.T) {
	bank, err := NewLocalBank(SAER, 8, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := bank.Reset(nil); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		touched []int32
		counts  []int32
	}{
		{"length mismatch", []int32{1, 2}, []int32{1}},
		{"unsorted", []int32{2, 1}, []int32{1, 1}},
		{"out of range", []int32{3, 99}, []int32{1, 1}},
		{"non-positive count", []int32{4}, []int32{0}},
		{"duplicate", []int32{5, 5}, []int32{3, 3}},
		{"unsorted inside one window", []int32{6, 5}, []int32{1, 1}},
	}
	for _, tc := range cases {
		if _, err := bank.DecideRound(tc.touched, tc.counts); err == nil {
			t.Errorf("%s: DecideRound accepted a malformed batch", tc.name)
		}
	}
	// The wire server hands decoded frames straight to the shard, so the
	// shard itself must reject a batch out of order within its window.
	shard, err := NewServerShard(SAER, 8, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := shard.Decide([]int32{6, 2}, []int32{1, 1}, nil, nil); err == nil {
		t.Error("ServerShard.Decide accepted an unsorted batch")
	}
}

// TestLocalBankRejectedRoundLeavesBank pins the check before the
// decide: a round whose slice for a later shard is malformed must leave
// the servers of the earlier shards as they were. [3, 200, 100] on two
// shards over 256 servers gives shard 0 a valid [3] and shard 1 an
// unsorted [200, 100]. The counted rounds break the dense contract in
// shard 1's part while shard 0's is valid: a byte vector one short or
// one long, wrap entries unsorted, past the last server or negative,
// and wraps that take server 200 past MaxInt32. After each rejection
// every load is still 0, and the bank decides a valid round. The wire
// server's decide, ServerShard.DecideCounted, must reject the MaxInt32
// round on its own shard too, and leave it as it was.
func TestLocalBankRejectedRoundLeavesBank(t *testing.T) {
	const m = 256
	bank, err := NewLocalBank(SAER, 8, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := bank.Reset(nil); err != nil {
		t.Fatal(err)
	}
	untouched := func(what string) {
		t.Helper()
		loads, err := bank.Loads()
		if err != nil {
			t.Fatal(err)
		}
		for u, ld := range loads {
			if ld != 0 {
				t.Fatalf("%s: server %d has load %d after a rejected round", what, u, ld)
			}
		}
	}
	if _, err := bank.DecideRound([]int32{3, 200, 100}, []int32{2, 2, 2}); err == nil {
		t.Fatal("DecideRound accepted an unsorted batch")
	}
	untouched("pairs")
	counts := make([]uint8, m)
	counts[3], counts[200] = 2, 255
	past := make([]int32, 1<<23) // 255 + 256·2²³ > MaxInt32
	for i := range past {
		past[i] = 200
	}
	for _, tc := range []struct {
		name   string
		counts []uint8
		wraps  []int32
	}{
		{"one short", counts[:m-1], nil},
		{"one long", append(slices.Clone(counts), 0), nil},
		{"unsorted wraps", counts, []int32{200, 130}},
		{"wrap past the last server", counts, []int32{130, m}},
		{"negative wrap", counts, []int32{-1, 130}},
		{"past MaxInt32", counts, past},
	} {
		if _, err := bank.DecideCounted(tc.counts, tc.wraps); err == nil {
			t.Fatalf("%s: DecideCounted accepted the round", tc.name)
		}
		untouched(tc.name)
	}
	shard, err := NewServerShard(SAER, 8, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := shard.DecideCounted(counts, past, make([]uint64, shard.WindowWords()), nil); err == nil {
		t.Fatal("ServerShard.DecideCounted accepted a count past MaxInt32")
	}
	if slices.ContainsFunc(shard.load, func(l int32) bool { return l != 0 }) || slices.Contains(shard.burned, true) {
		t.Fatal("a rejected counted round changed the shard")
	}
	dec, err := bank.DecideCounted(counts, past[:1<<23-1]) // 255 + 256·(2²³-1) ≤ MaxInt32
	if err != nil {
		t.Fatal(err)
	}
	if dec.Accepted[0] != 1<<3 || dec.Accepted[3] != 0 || !slices.Equal(dec.NewlyBurned, []int32{200}) || dec.Saturated != 1 {
		t.Fatalf("valid round after the rejections: %+v", dec)
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

// TestLocalBankDecideRoundDoesNotAllocate pins the decision buffers: on
// a warmed bank, a round that accepts some servers and burns others
// allocates nothing, under either rule, as pairs or densely. Each round
// starts from a reset, which allocates nothing either, so the decision
// lists are never empty.
func TestLocalBankDecideRoundDoesNotAllocate(t *testing.T) {
	for _, variant := range []Variant{SAER, RAES} {
		bank, err := NewLocalBank(variant, 8, 1000, 3)
		if err != nil {
			t.Fatal(err)
		}
		touched, counts := []int32{1, 7, 333, 334, 700, 999}, []int32{1, 9, 1, 2, 9, 1}
		dense := make([]uint8, 1000)
		for i, u := range touched {
			dense[u] = uint8(counts[i])
		}
		round := func() {
			if err := bank.Reset(nil); err != nil {
				t.Fatal(err)
			}
			dec, err := bank.DecideRound(touched, counts)
			if err != nil || len(dec.Accepted) != 4 || len(dec.NewlyBurned) != 2 {
				t.Fatalf("%v: decision %+v, %v", variant, dec, err)
			}
		}
		denseRound := func() {
			if err := bank.Reset(nil); err != nil {
				t.Fatal(err)
			}
			dec, err := bank.DecideCounted(dense, nil)
			if err != nil || !slices.Equal(dec.NewlyBurned, []int32{7, 700}) || dec.Accepted[5] != 1<<(333&63)|1<<(334&63) {
				t.Fatalf("%v: dense decision %+v, %v", variant, dec, err)
			}
		}
		for _, r := range []struct {
			name string
			fn   func()
		}{{"DecideRound", round}, {"DecideCounted", denseRound}} {
			r.fn()
			if avg := testing.AllocsPerRun(50, r.fn); avg != 0 {
				t.Errorf("%v: %s allocates %.1f times per round", variant, r.name, avg)
			}
		}
	}
}

// TestLocalBankResetDoesNotAllocate pins the reset path the churn epoch
// loop hits every epoch: resetting a bank (and through it every shard)
// from a run's initial loads must not copy the loads into fresh
// per-shard windows.
func TestLocalBankResetDoesNotAllocate(t *testing.T) {
	bank, err := NewLocalBank(RAES, 8, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	loads := make([]int, 1000)
	for u := range loads {
		loads[u] = u % 11
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := bank.Reset(loads); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("LocalBank.Reset with initial loads allocates %.1f objects per call", avg)
	}
	got, err := bank.Loads()
	if err != nil {
		t.Fatal(err)
	}
	for u, l := range got {
		if int(l) != loads[u] {
			t.Fatalf("server %d reset to load %d, want %d", u, l, loads[u])
		}
	}
}

// recordingBank is a LocalBank that checks every round a Driver ships
// before deciding it and records how it came: a pair batch must be
// strictly ascending with counts parallel, and a dense round must hold
// one byte per server and ascending wrap entries. kinds gets 'p' per
// pair batch and 'd' per dense round, in round order.
type recordingBank struct {
	*LocalBank
	t     *testing.T
	name  string
	kinds []byte
	wraps int // wrap entries over every dense round
}

func (b *recordingBank) DecideRound(touched, counts []int32) (RoundDecision, error) {
	b.kinds = append(b.kinds, 'p')
	if len(counts) != len(touched) {
		b.t.Errorf("%s round %d: %d counts for %d servers", b.name, len(b.kinds), len(counts), len(touched))
	}
	for i, u := range touched {
		if i > 0 && u <= touched[i-1] {
			b.t.Errorf("%s round %d: not strictly ascending at index %d (%d after %d)",
				b.name, len(b.kinds), i, u, touched[i-1])
			break
		}
	}
	return b.LocalBank.DecideRound(touched, counts)
}

func (b *recordingBank) DecideCounted(counts []uint8, wraps []int32) (CountedDecision, error) {
	b.kinds = append(b.kinds, 'd')
	b.wraps += len(wraps)
	if err := CheckCounted(counts, wraps, b.m); err != nil {
		b.t.Errorf("%s round %d: %v", b.name, len(b.kinds), err)
	}
	return b.LocalBank.DecideCounted(counts, wraps)
}

// wantKinds is the shipment kind of each round of res for dr: 'd'
// exactly when countsRound counts the round, since a Driver ships every
// counted round densely, and 'p' otherwise.
func wantKinds(dr *Driver, res *Result) string {
	var kinds []byte
	for _, st := range res.PerRound {
		kind := byte('p')
		if dr.countsRound(int64(st.AliveBalls)) {
			kind = 'd'
		}
		kinds = append(kinds, kind)
	}
	return string(kinds)
}

// pairsOnly exposes only the four ServerBank methods of the bank it
// wraps, as a wrapper that embeds the interface does, so its Driver
// ships every round as pairs.
type pairsOnly struct{ ServerBank }

// TestDriverShipsAscendingBatches pins the ordered fold end to end: the
// Driver concatenates its shards' touched lists without sorting, so
// every pair batch it ships must already be strictly ascending — for
// every worker count and route shard count — and every dense round's
// wrap entries ascending. Each round ships once, densely exactly when
// countsRound counts it (one worker on one router shard counts the
// rounds with m ≤ 8·balls and routes the rest), and the run must still
// match the one-shard Runner reference.
func TestDriverShipsAscendingBatches(t *testing.T) {
	g := regularGraph(t, 1000, 24, 9)
	cfg := Config{Variant: SAER, D: 2, C: 2, Seed: 0xACE, TrackRounds: true, TrackLoads: true}
	ref, err := oneShard(cfg).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		for _, shards := range []int{0, 1, 2, 3, 8} {
			name := fmt.Sprintf("workers=%d shards=%d", workers, shards)
			local, err := NewLocalBank(cfg.Variant, int32(cfg.Params().Capacity()), g.NumServers(), 3)
			if err != nil {
				t.Fatal(err)
			}
			bank := &recordingBank{LocalBank: local, t: t, name: name}
			wcfg := cfg
			wcfg.Workers, wcfg.Shards = workers, shards
			dr, err := NewDriver(g, wcfg, bank)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dr.Run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := wantKinds(dr, res); string(bank.kinds) != want || res.Rounds < 2 {
				t.Fatalf("%s: shipped %q over %d rounds, want %q", name, bank.kinds, res.Rounds, want)
			}
			if workers == 1 && shards <= 1 && bank.kinds[0] != 'd' {
				t.Errorf("%s: round 1 of a one-worker run went as pairs", name)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("%s: driver diverges from the runner reference", name)
			}
		}
	}
}

// TestShipsDenseRule pins shipsDense, the veto on a Driver's counted
// rounds: a round may be counted only when the bank has the counted-round
// method and m ≤ 8·balls.
func TestShipsDenseRule(t *testing.T) {
	for _, tc := range []struct {
		method bool
		balls  int64
		m      int
		want   bool
	}{
		{true, 1 << 17, 1 << 16, true},    // wire-loopback's round 1
		{true, 1 << 13, 1 << 16, true},    // m = 8·balls: as large as the pairs can be
		{true, 1<<13 - 1, 1 << 16, false}, // one ball fewer: pairs
		{true, 1, 8, true},
		{true, 0, 1, false},
		{false, 1 << 20, 1 << 16, false}, // a bank without the method
		{false, 1, 1, false},
	} {
		if got := shipsDense(tc.method, tc.balls, tc.m); got != tc.want {
			t.Errorf("shipsDense(method=%t, balls=%d, m=%d) = %t, want %t",
				tc.method, tc.balls, tc.m, got, tc.want)
		}
	}
}

// routedOnlyBank is a LocalBank that holds the Driver it serves and
// fails the test when a round the Driver counted reaches DecideRound: a
// counted round is decided densely, so only routed rounds may come as
// pairs. pairs counts the rounds that came as pairs.
type routedOnlyBank struct {
	*LocalBank
	t     *testing.T
	name  string
	dr    *Driver
	pairs int
}

func (b *routedOnlyBank) DecideRound(touched, counts []int32) (RoundDecision, error) {
	b.pairs++
	if b.dr.counted {
		b.t.Errorf("%s: pair round %d was counted", b.name, b.pairs)
	}
	return b.LocalBank.DecideRound(touched, counts)
}

// TestDriverMatchesRunnerRoutedPairs checks that a Driver routes every
// round it ships as pairs, for both variants with every tracking option
// on, one worker on one router shard, where directCount counts every
// round: over a bank without the counted-round method, whose Driver must
// route every round, and over one with it, whose Driver must route the
// tail rounds with m > 8·balls. Both runs must equal the Runner's.
func TestDriverMatchesRunnerRoutedPairs(t *testing.T) {
	topo, err := gen.TrustSubsetImplicit(1000, 1000, 24, 0x9A1)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []Variant{SAER, RAES} {
		cfg := oneShard(Config{Variant: variant, D: 2, C: 2, Seed: 0x9A1, MaxRounds: 200,
			TrackRounds: true, TrackNeighborhoods: true, TrackLoads: true, TrackAssignments: true})
		ref, err := cfg.Run(topo)
		if err != nil {
			t.Fatal(err)
		}
		sparse := 0 // rounds with m > 8·balls
		for _, st := range ref.PerRound {
			if ref.NumServers > 8*st.AliveBalls {
				sparse++
			}
		}
		if sparse == 0 {
			t.Fatalf("%v: no round has m > 8·balls", variant)
		}
		for _, method := range []bool{false, true} {
			name := fmt.Sprintf("%v method=%t", variant, method)
			local, err := NewLocalBank(variant, int32(cfg.Params().Capacity()), topo.NumServers(), 2)
			if err != nil {
				t.Fatal(err)
			}
			bank := &routedOnlyBank{LocalBank: local, t: t, name: name}
			var sb ServerBank = bank
			wantPairs := ref.Rounds
			if !method {
				sb = pairsOnly{bank}
			} else {
				wantPairs = sparse
			}
			if bank.dr, err = NewDriver(topo, cfg, sb); err != nil {
				t.Fatal(err)
			}
			got, err := bank.dr.Run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if bank.pairs != wantPairs {
				t.Errorf("%s: %d of %d rounds came as pairs, want %d", name, bank.pairs, got.Rounds, wantPairs)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: driver diverges from the runner reference", name)
			}
		}
	}
}

// TestDriverDenseMatchesRunner is the dense exchange's equivalence
// suite: a Driver over a LocalBank, which ships its counted rounds
// densely, equals the one-shard Runner bit for bit for both variants,
// at 1 to 3 workers over 1 to 3 bank shards, on point-query topologies
// whose server counts (1,000 and 4,099) are not multiples of 8, so bank
// windows start and end inside groups of 8 servers. The cases cover
// tracking (neighborhoods, assignments, loads, rounds), per-client
// request counts with initial loads that put servers at and above the
// capacity (RAES servers above it keep rejecting), and a hot instance
// whose cells take hundreds of requests in round 1, so the fold writes
// wrap entries and the bank reads them. A recording bank checks that
// round 1 ships densely, and a pairs-only wrapper of the same bank must
// give the same Result.
func TestDriverDenseMatchesRunner(t *testing.T) {
	type instance struct {
		name           string
		n, m, delta, d int
		c              float64
		dynamic        bool
	}
	instances := []instance{
		{"sparse m=1000", 1000, 1000, 24, 2, 2, false},
		{"sparse m=4099", 4099, 4099, 16, 2, 3, false},
		{"dynamic m=1000", 1000, 1000, 24, 3, 2, true},
		{"hot m=1000", 1000, 1000, 4, 300, 2, false},
	}
	for _, in := range instances {
		topo, err := gen.TrustSubsetImplicit(in.n, in.m, in.delta, uint64(in.m+in.d))
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []Variant{SAER, RAES} {
			cfg := Config{Variant: variant, D: in.d, C: in.c, Seed: 0xD15E, MaxRounds: 200,
				TrackRounds: true, TrackNeighborhoods: true, TrackLoads: true, TrackAssignments: true}
			if in.dynamic {
				src := rng.New(3)
				capacity := cfg.Params().Capacity()
				cfg.InitialLoads = make([]int, in.m)
				cfg.RequestCounts = make([]int, in.n)
				for u := range cfg.InitialLoads {
					cfg.InitialLoads[u] = src.Intn(capacity + 3) // some at and above the capacity
				}
				for v := range cfg.RequestCounts {
					cfg.RequestCounts[v] = src.Intn(in.d + 1)
				}
			}
			ref, err := oneShard(cfg).Run(topo)
			if err != nil {
				t.Fatal(err)
			}
			for workers := 1; workers <= 3; workers++ {
				for shards := 1; shards <= 3; shards++ {
					name := fmt.Sprintf("%s %v workers=%d shards=%d", in.name, variant, workers, shards)
					wcfg := cfg
					wcfg.Workers = workers
					local, err := NewLocalBank(variant, int32(cfg.Params().Capacity()), in.m, shards)
					if err != nil {
						t.Fatal(err)
					}
					rec := &recordingBank{LocalBank: local, t: t, name: name}
					for _, bank := range []ServerBank{rec, pairsOnly{local}} {
						dr, err := NewDriver(topo, wcfg, bank)
						if err != nil {
							t.Fatal(err)
						}
						got, err := dr.Run()
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !reflect.DeepEqual(got, ref) {
							t.Errorf("%s (%T): driver diverges from the runner reference", name, bank)
						}
						if bank == rec && (len(rec.kinds) == 0 || rec.kinds[0] != 'd' || string(rec.kinds) != wantKinds(dr, got)) {
							t.Errorf("%s: shipped %q, want %q with round 1 dense", name, rec.kinds, wantKinds(dr, got))
						}
						if bank == rec && in.d > 255 && rec.wraps == 0 {
							t.Errorf("%s: no dense round carried a wrap entry", name)
						}
					}
				}
			}
		}
	}
}

// tamperBank answers like a LocalBank, then corrupts its decision for
// round 1 — the stand-in for a buggy or hostile remote server. tamper
// corrupts a pair decision and tamperDense a dense one; a round whose
// hook is nil goes through untouched.
type tamperBank struct {
	*LocalBank
	calls       int
	tamper      func(touched []int32, dec *RoundDecision)
	tamperDense func(counts []uint8, dec *CountedDecision)
}

func (b *tamperBank) DecideCounted(counts []uint8, wraps []int32) (CountedDecision, error) {
	dec, err := b.LocalBank.DecideCounted(counts, wraps)
	b.calls++
	if err == nil && b.calls == 1 && b.tamperDense != nil {
		b.tamperDense(counts, &dec)
	}
	return dec, err
}

func (b *tamperBank) DecideRound(touched, counts []int32) (RoundDecision, error) {
	dec, err := b.LocalBank.DecideRound(touched, counts)
	b.calls++
	if err == nil && b.calls == 1 && b.tamper != nil {
		b.tamper(touched, &dec)
	}
	return dec, err
}

// TestDriverRejectsMalformedDecisions pins the round loop's validation of
// the bank's answer: a decision naming a server out of range, twice, out of
// order or outside the shipped batch, or claiming more saturations than
// the batch holds, ends the run with a round-1 error instead of a panic
// or a silently applied decision. The dense cases tamper with the
// answer to a dense round: an accept bit on a server that received
// nothing or past the last server, a bitmap of the wrong length, newly
// burned servers out of order, repeated, idle or out of range, and a
// saturation count outside [0, touched].
func TestDriverRejectsMalformedDecisions(t *testing.T) {
	g := regularGraph(t, 1024, 16, 5)
	cfg := Config{Variant: SAER, D: 2, C: 2, Seed: 77, Workers: 2}
	notInBatch := func(touched []int32) int32 {
		for u := int32(0); ; u++ {
			if _, found := slices.BinarySearch(touched, u); !found {
				return u
			}
		}
	}
	cases := []struct {
		name   string
		tamper func(touched []int32, dec *RoundDecision)
	}{
		{"out of range", func(_ []int32, dec *RoundDecision) {
			dec.Accepted = append(dec.Accepted, 1<<20)
		}},
		{"negative", func(_ []int32, dec *RoundDecision) {
			dec.Accepted = append(dec.Accepted, -1)
		}},
		{"duplicate", func(_ []int32, dec *RoundDecision) {
			dec.Accepted = slices.Insert(dec.Accepted, 1, dec.Accepted[1])
		}},
		{"not in the batch", func(touched []int32, dec *RoundDecision) {
			u := notInBatch(touched)
			k, _ := slices.BinarySearch(dec.Accepted, u)
			dec.Accepted = slices.Insert(dec.Accepted, k, u)
		}},
		{"unsorted", func(_ []int32, dec *RoundDecision) {
			dec.Accepted[0], dec.Accepted[1] = dec.Accepted[1], dec.Accepted[0]
		}},
		{"newly burned not in the batch", func(touched []int32, dec *RoundDecision) {
			dec.NewlyBurned = append(dec.NewlyBurned, notInBatch(touched))
			slices.Sort(dec.NewlyBurned)
		}},
		{"saturated beyond the batch", func(touched []int32, dec *RoundDecision) {
			dec.Saturated = len(touched) + 1
		}},
		{"negative saturated", func(_ []int32, dec *RoundDecision) {
			dec.Saturated = -1
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runTampered(t, g, cfg, &tamperBank{tamper: tc.tamper})
		})
	}
	// Round 1 of a two-worker run on a point-query topology is counted
	// and ships densely. m = 1000 leaves 24 bits of the bitmap's last
	// word past the bank.
	pq, err := gen.RegularImplicit(1000, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	idle := func(counts []uint8) int32 { return int32(slices.Index(counts, 0)) }
	reached := func(counts []uint8, k int) int32 {
		for u, c := range counts {
			if c != 0 {
				if k == 0 {
					return int32(u)
				}
				k--
			}
		}
		panic("too few servers received requests")
	}
	touched := func(counts []uint8) int { return len(counts) - bytes.Count(counts, []byte{0}) }
	setBit := func(dec *CountedDecision, u int32) { dec.Accepted[u>>6] |= 1 << (u & 63) }
	dense := []struct {
		name   string
		tamper func(counts []uint8, dec *CountedDecision)
	}{
		{"accept bit on an idle server", func(counts []uint8, dec *CountedDecision) { setBit(dec, idle(counts)) }},
		{"accept bit past the bank", func(_ []uint8, dec *CountedDecision) { setBit(dec, 1000) }},
		{"bitmap too short", func(_ []uint8, dec *CountedDecision) { dec.Accepted = dec.Accepted[:len(dec.Accepted)-1] }},
		{"bitmap too long", func(_ []uint8, dec *CountedDecision) { dec.Accepted = append(dec.Accepted, 0) }},
		{"newly burned unsorted", func(counts []uint8, dec *CountedDecision) {
			dec.NewlyBurned = []int32{reached(counts, 1), reached(counts, 0)}
		}},
		{"newly burned duplicate", func(counts []uint8, dec *CountedDecision) {
			dec.NewlyBurned = []int32{reached(counts, 0), reached(counts, 0)}
		}},
		{"newly burned idle server", func(counts []uint8, dec *CountedDecision) {
			dec.NewlyBurned = []int32{idle(counts)}
		}},
		{"newly burned past the bank", func(_ []uint8, dec *CountedDecision) { dec.NewlyBurned = []int32{1000} }},
		{"newly burned negative", func(_ []uint8, dec *CountedDecision) { dec.NewlyBurned = []int32{-1} }},
		{"saturated beyond the touched servers", func(counts []uint8, dec *CountedDecision) { dec.Saturated = touched(counts) + 1 }},
		{"negative saturated", func(_ []uint8, dec *CountedDecision) { dec.Saturated = -1 }},
	}
	for _, tc := range dense {
		t.Run("dense/"+tc.name, func(t *testing.T) {
			runTampered(t, pq, cfg, &tamperBank{tamperDense: tc.tamper})
		})
	}
}

// runTampered runs cfg on topo over b, given a LocalBank of two shards,
// and fails t unless the run ends with round 1's bank decision error,
// without a panic.
func runTampered(t *testing.T, topo bipartite.Topology, cfg Config, b *tamperBank) {
	t.Helper()
	local, err := NewLocalBank(cfg.Variant, int32(cfg.Params().Capacity()), topo.NumServers(), 2)
	if err != nil {
		t.Fatal(err)
	}
	b.LocalBank = local
	dr, err := NewDriver(topo, cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("Driver.Run panicked: %v", p)
		}
	}()
	_, err = dr.Run()
	if err == nil {
		t.Fatal("Driver.Run accepted a malformed decision")
	}
	if !strings.Contains(err.Error(), "core: round 1: bank decision") {
		t.Errorf("error %q does not name round 1's bank decision", err)
	}
	if b.calls == 0 {
		t.Error("the bank decided no round")
	}
}

// loadsBank is a LocalBank whose final loads pass through tamper — the
// stand-in for a remote bank that lost or double-applied a decision.
type loadsBank struct {
	*LocalBank
	tamper func(loads []int32)
}

func (b *loadsBank) Loads() ([]int32, error) {
	loads, err := b.LocalBank.Loads()
	if err != nil {
		return nil, err
	}
	loads = slices.Clone(loads)
	b.tamper(loads)
	return loads, nil
}

// TestDriverChecksBankLoads pins the per-run check of a bank's final
// loads: every load is non-negative, and the loads sum to the clamped
// initial loads plus the accepted balls. A bank that drops a ball,
// counts one twice or reports a negative load fails the run with an
// error naming the sums or the server; an honest bank passes, with
// negative initial loads clamped as the servers clamp them, one below
// MinInt32 included.
func TestDriverChecksBankLoads(t *testing.T) {
	g := regularGraph(t, 1024, 16, 5)
	initial := make([]int, g.NumServers())
	for u := range initial {
		initial[u] = u%5 - 1 // -1 … 3
	}
	initial[9] = -(1 << 32) + 5 // would wrap to 5 if converted before the clamp
	firstLoaded := func(loads []int32) int {
		return slices.IndexFunc(loads, func(l int32) bool { return l > 0 })
	}
	cases := []struct {
		name   string
		tamper func(loads []int32)
		want   string // error substring; "" = the run must pass
	}{
		{"honest", func([]int32) {}, ""},
		{"dropped ball", func(loads []int32) { loads[firstLoaded(loads)]-- }, "core: bank loads: loads sum to"},
		{"ball counted twice", func(loads []int32) { loads[7]++ }, "core: bank loads: loads sum to"},
		{"negative load", func(loads []int32) { loads[41] = -1 }, "core: bank loads: server 41 has negative load -1"},
	}
	for _, tc := range cases {
		for _, loads := range [][]int{nil, initial} {
			cfg := Config{Variant: SAER, D: 2, C: 4, Seed: 3, Workers: 2, InitialLoads: loads}
			local, err := NewLocalBank(cfg.Variant, int32(cfg.Params().Capacity()), g.NumServers(), 2)
			if err != nil {
				t.Fatal(err)
			}
			dr, err := NewDriver(g, cfg, &loadsBank{LocalBank: local, tamper: tc.tamper})
			if err != nil {
				t.Fatal(err)
			}
			_, err = dr.Run()
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s, initial loads %t: %v", tc.name, loads != nil, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s, initial loads %t: error %v, want one containing %q", tc.name, loads != nil, err, tc.want)
			}
		}
	}
}
