package core

import (
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
// (one-lane reference) and through Driver+LocalBank across
// client worker counts and shard counts, and fails unless every Result —
// PerRound series, load vectors, assignments, all of it — is bit-for-bit
// identical. This is the contract the wire transport inherits: the
// Driver is its client side (its phases fan out over the worker pool),
// the LocalBank stands where the remote shard processes will.
func driverEquivalenceCase(t *testing.T, name string, topo bipartite.Topology, cfg Config) {
	t.Helper()
	ref, err := oneLane(cfg).Run(topo)
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

// recordingBank is a LocalBank that checks every batch a Driver ships
// before deciding it: strictly ascending, counts parallel and positive.
type recordingBank struct {
	*LocalBank
	t       *testing.T
	name    string
	batches int
}

func (b *recordingBank) DecideRound(touched, counts []int32) (RoundDecision, error) {
	b.batches++
	if len(counts) != len(touched) {
		b.t.Errorf("%s batch %d: %d counts for %d servers", b.name, b.batches, len(counts), len(touched))
	}
	for i, u := range touched {
		if i > 0 && u <= touched[i-1] {
			b.t.Errorf("%s batch %d: not strictly ascending at index %d (%d after %d)",
				b.name, b.batches, i, u, touched[i-1])
			break
		}
	}
	return b.LocalBank.DecideRound(touched, counts)
}

// TestDriverShipsAscendingBatches pins the ordered fold end to end: the
// Driver concatenates its shards' touched lists without sorting, so
// every batch it ships must already be strictly ascending — for every
// worker count and route shard count — and the run must still match
// the one-lane Runner reference.
func TestDriverShipsAscendingBatches(t *testing.T) {
	g := regularGraph(t, 1000, 24, 9)
	cfg := Config{Variant: SAER, D: 2, C: 2, Seed: 0xACE, TrackRounds: true, TrackLoads: true}
	ref, err := oneLane(cfg).Run(g)
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
			if bank.batches != res.Rounds || res.Rounds < 2 {
				t.Fatalf("%s: %d batches for %d rounds", name, bank.batches, res.Rounds)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("%s: driver diverges from the runner reference", name)
			}
		}
	}
}

// tamperBank answers like a LocalBank, then corrupts its decision for
// round 1 — the stand-in for a buggy or hostile remote server.
type tamperBank struct {
	*LocalBank
	calls  int
	tamper func(touched []int32, dec *RoundDecision)
}

func (b *tamperBank) DecideRound(touched, counts []int32) (RoundDecision, error) {
	dec, err := b.LocalBank.DecideRound(touched, counts)
	b.calls++
	if err == nil && b.calls == 1 {
		b.tamper(touched, &dec)
	}
	return dec, err
}

// TestDriverRejectsMalformedDecisions pins the round loop's validation of
// the bank's answer: a decision naming a server out of range, twice, out of
// order or outside the shipped batch, or claiming more saturations than
// the batch holds, ends the run with a round-1 error instead of a panic
// or a silently applied decision.
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
			local, err := NewLocalBank(cfg.Variant, int32(cfg.Params().Capacity()), g.NumServers(), 2)
			if err != nil {
				t.Fatal(err)
			}
			dr, err := NewDriver(g, cfg, &tamperBank{LocalBank: local, tamper: tc.tamper})
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
		})
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
