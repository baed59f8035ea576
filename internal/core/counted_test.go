package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/rng"
)

// cloneShard returns a deep copy of sh.
func cloneShard(sh *ServerShard) *ServerShard {
	c := *sh
	c.load = slices.Clone(sh.load)
	c.receivedTotal = slices.Clone(sh.receivedTotal)
	c.burned = slices.Clone(sh.burned)
	return &c
}

// countedRound is one round's events for a pair of byte tallies: the
// cells each worker counts.
type countedRound [][]int32

// randomRound draws a round over window [lo, hi) for the given workers:
// words left empty, sparse and dense, and a few hot cells into which
// one worker counts 256 or more, so its byte wraps. Hot cells land in
// the first and last words of the window too, which are partial when lo
// or hi is not a multiple of 8.
func randomRound(src *rng.Source, workers, lo, hi int) countedRound {
	round := make(countedRound, workers)
	for base := lo &^ 7; base < hi; base += 8 {
		var density int
		switch src.Intn(3) {
		case 1:
			density = 1
		case 2:
			density = 12
		}
		for range density {
			u := base + src.Intn(8)
			if u < lo || u >= hi {
				continue
			}
			w := src.Intn(workers)
			round[w] = append(round[w], int32(u))
		}
	}
	hot := []int{lo + src.Intn(hi-lo), lo, hi - 1}
	for _, u := range hot {
		w := src.Intn(workers)
		for range 256 + src.Intn(300) {
			round[w] = append(round[w], int32(u))
		}
	}
	return round
}

// count fills bt with the round's events and seals it.
func (round countedRound) count(bt *engine.ByteTally) {
	for w, cells := range round {
		bt.Add(w, cells)
	}
	bt.Seal()
}

// totals sums the round's events of every worker into per-server counts
// over size servers, indexed by server id as a stamped tally's are, and
// lists the servers that received any, ascending.
func (round countedRound) totals(size int) (counts, touched []int32) {
	counts = make([]int32, size)
	for _, cells := range round {
		for _, u := range cells {
			counts[u]++
		}
	}
	for u, n := range counts {
		if n > 0 {
			touched = append(touched, int32(u))
		}
	}
	return counts, touched
}

// TestCountedDecideMatchesBlockPath runs the dense counted decide over
// random byte tallies of 1 to 3 workers beside the pair path on a cloned
// shard: the round's own cell lists summed per server, then applyBlock
// over the servers that received requests. It covers both variants with
// and without tracking, in three rounds each: windows whose start and
// end are and are not multiples of 8 (a LocalBank's, whose partial
// groups go through SumCells), one shorter than a word and one inside a
// single word, cells whose count wraps a worker's byte, servers that
// start burned, RAES servers that start above capacity, and capacities
// that do and do not admit a wrapped count. Both must leave equal loads,
// burned flags, RAES totals, accept sets and received counts, and return
// equal new burns and saturations, and the dense pass must leave every
// tally byte 0.
func TestCountedDecideMatchesBlockPath(t *testing.T) {
	src := rng.New(0xDEC1DE)
	for _, variant := range []Variant{SAER, RAES} {
		for _, track := range []bool{false, true} {
			for workers := 1; workers <= 3; workers++ {
				for _, span := range [][2]int{{0, 1024}, {128, 1000}, {64, 64 + 709}, {192, 197}, {13, 901}, {5, 7}} {
					for _, capacity := range []int32{1, 6, 700} {
						name := fmt.Sprintf("%v/track=%t/workers=%d/window=%v/cap=%d", variant, track, workers, span, capacity)
						checkCountedDecide(t, name, src, variant, track, workers, span[0], span[1], capacity)
					}
				}
			}
		}
	}
}

func checkCountedDecide(t *testing.T, name string, src *rng.Source, variant Variant, track bool, workers, lo, hi int, capacity int32) {
	t.Helper()
	size := hi + src.Intn(3)*5 // the window may end before the tally does
	dense, err := NewServerShard(variant, capacity, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]int32, hi-lo)
	for j := range initial {
		initial[j] = int32(src.Intn(int(capacity)+2)) - 2
		if j == 0 || src.Intn(5) == 0 {
			// Burned from the start; a RAES load above the capacity.
			initial[j] = capacity + int32(src.Intn(3))
		}
	}
	if err := dense.Reset(initial); err != nil {
		t.Fatal(err)
	}
	pairs := cloneShard(dense)
	bt := engine.NewByteTally(workers, size)
	words := (size + 63) / 64
	accDense, accPairs := make([]uint64, words), make([]uint64, words)
	var recvDense, recvPairs []int32
	if track {
		recvDense, recvPairs = make([]int32, size), make([]int32, size)
	}
	for round := 1; round <= 3; round++ {
		r := randomRound(src, workers, lo, hi)
		r.count(bt)
		// As beginRound clears them.
		clear(accDense)
		clear(accPairs)
		clear(recvDense)
		clear(recvPairs)
		nbD, satD := dense.decideCounted(bt, accDense, recvDense)
		counts, touched := r.totals(size)
		nbP, satP := pairs.applyBlock(touched, counts, accPairs)
		if track {
			for _, u := range touched {
				recvPairs[u] = counts[u]
			}
		}
		switch {
		case nbD != nbP || satD != satP:
			t.Fatalf("%s round %d: dense pass gave %d new burns / %d saturations, pair path %d / %d", name, round, nbD, satD, nbP, satP)
		case !slices.Equal(accDense, accPairs):
			t.Fatalf("%s round %d: accept sets differ:\n dense %x\n pairs %x", name, round, accDense, accPairs)
		case !slices.Equal(recvDense, recvPairs):
			t.Fatalf("%s round %d: received counts differ", name, round)
		case !reflect.DeepEqual(dense, pairs):
			t.Fatalf("%s round %d: shard states differ:\n dense %+v\n pairs %+v", name, round, dense, pairs)
		}
		if variant == SAER && dense.receivedTotal != nil {
			t.Fatalf("%s: a SAER shard keeps received totals", name)
		}
		// A second Seal drops the round's wrap entries, so any count read
		// back is a byte the decide left behind.
		bt.Seal()
		for base := 0; base < size; base += 8 {
			var left [8]int32
			bt.SumCells(base, base, min(base+8, size), &left, nil)
			if left != [8]int32{} {
				t.Fatalf("%s round %d: tally left counts %v in the word at cell %d", name, round, left, base)
			}
		}
	}
}

// fuzzCounted decodes one counted round for a window of width servers
// from b: a flag byte whose bit 0 makes the byte vector one short and
// bit 1 one long, the count bytes (zeros once b runs out), a byte whose
// low 3 bits give the number of wrap entries, and one byte per entry,
// read as a window cell from -2 on. It returns the rest of b.
func fuzzCounted(b []byte, width int) (counts []uint8, wraps []int32, rest []byte) {
	n := width
	switch {
	case b[0]&1 != 0:
		n--
	case b[0]&2 != 0:
		n++
	}
	b = b[1:]
	counts = make([]uint8, n)
	b = b[copy(counts, b):]
	if len(b) == 0 {
		return counts, nil, nil
	}
	k := int(b[0] & 7)
	b = b[1:]
	for ; k > 0 && len(b) > 0; k-- {
		wraps = append(wraps, int32(b[0])-2)
		b = b[1:]
	}
	return counts, wraps, b
}

// FuzzCountedDecide runs counted rounds decoded from the fuzz input
// through ServerShard.DecideCounted, the wire server's dense decide, on
// a shard over a random window [lo, hi) that may start and end anywhere
// in a word, beside a clone that decides the equivalent (touched,
// counts) batch through Decide. DecideCounted must reject a round
// exactly when CheckCounted does (a byte vector not one per window
// server, or wrap entries unsorted or outside the window), leave the
// shard as it was when it rejects, and otherwise leave the clone's
// loads, burned flags and RAES totals, and return its accepted servers
// as window bits, its newly burned list and saturations, and the
// requests the accepted servers received (CountedRequests with the
// accept bitmap); CountedRequests without one must give the sum of the
// batch's counts. A third clone decides each valid round as a LocalBank
// shard does, over a view of the counts of every server from 0 on, with
// noise in the cells below lo, so its dense pass starts inside a group
// of 8 when lo is not a multiple of 8; it must agree too. Capacities
// above 255 let a wrapped count be accepted.
//
// The seed corpus (testdata/fuzz/FuzzCountedDecide) holds a valid round
// per variant, rounds with wrap entries under both rules, an unaligned
// window that spans two bitmap words, and rounds whose byte vector is
// one short or one long or whose wrap entries are unsorted or outside
// the window.
func FuzzCountedDecide(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		variant := Variant(data[0] & 1)
		capacity := int32(1 + data[1]%12)
		if data[1]&0x80 != 0 {
			capacity = 256 + int32(data[1]&0x7f)
		}
		lo := int(data[2])
		hi := lo + 1 + int(data[3]%150)
		dense, err := NewServerShard(variant, capacity, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		pairs, bank := cloneShard(dense), cloneShard(dense)
		accepted := make([]uint64, dense.WindowWords())
		bankAccepted := make([]uint64, (hi+63)/64)
		for rest := data[4:]; len(rest) > 0; {
			var counts []uint8
			var wraps []int32
			counts, wraps, rest = fuzzCounted(rest, hi-lo)
			before := cloneShard(dense)
			nb, sat, accReqs, err := dense.DecideCounted(counts, wraps, accepted, nil)
			if check := CheckCounted(counts, wraps, hi-lo); (err == nil) != (check == nil) {
				t.Fatalf("DecideCounted(%v, %v) error %v, CheckCounted %v", counts, wraps, err, check)
			}
			if err != nil {
				if !reflect.DeepEqual(dense.load, before.load) || !slices.Equal(dense.receivedTotal, before.receivedTotal) || !slices.Equal(dense.burned, before.burned) {
					t.Fatalf("rejected round (%v, %v) changed the shard", counts, wraps)
				}
				continue
			}
			var touched, batch []int32
			for i, c := range counts {
				n := int32(c)
				for _, w := range wraps {
					if int(w) == i {
						n += 256
					}
				}
				if n > 0 {
					touched = append(touched, int32(lo+i))
					batch = append(batch, n)
				}
			}
			acc, wantNB, wantSat, err := pairs.Decide(touched, batch, nil, nil)
			if err != nil {
				t.Fatalf("Decide(%v, %v) of a valid counted round: %v", touched, batch, err)
			}
			var total int64
			for _, n := range batch {
				total += int64(n)
			}
			if got := CountedRequests(counts, wraps, nil); got != total {
				t.Fatalf("round (%v, %v): CountedRequests without a mask gave %d, want %d", counts, wraps, got, total)
			}
			all := make([]uint8, hi)
			for u := range lo {
				all[u] = uint8(u*37 + 1)
			}
			copy(all[lo:], counts)
			var allWraps []int32
			if lo > 0 {
				allWraps = append(allWraps, int32(lo-1))
			}
			for _, w := range wraps {
				allWraps = append(allWraps, w+int32(lo))
			}
			clear(bankAccepted)
			bankNB, bankSat := bank.decideBank(bank, all, allWraps, bankAccepted, nil)
			for i := range hi - lo {
				u := lo + i
				if bankAccepted[u>>6]>>(u&63)&1 != accepted[i>>6]>>(i&63)&1 {
					t.Fatalf("round (%v, %v): server %d's accept bit differs in the bank shape", counts, wraps, u)
				}
			}
			for u := range lo {
				if bankAccepted[u>>6]>>(u&63)&1 == 1 {
					t.Fatalf("round (%v, %v): the bank shape accepted server %d below the window", counts, wraps, u)
				}
			}
			if !slices.Equal(bankNB, wantNB) || bankSat != wantSat || !slices.Equal(bank.load, pairs.load) ||
				!slices.Equal(bank.receivedTotal, pairs.receivedTotal) || !slices.Equal(bank.burned, pairs.burned) {
				t.Fatalf("round (%v, %v): the bank shape gave %v / %d and state %+v; Decide %v / %d and %+v",
					counts, wraps, bankNB, bankSat, bank, wantNB, wantSat, pairs)
			}
			var gotAcc []int32
			var wantReqs int64
			for i := range hi - lo {
				if accepted[i>>6]>>(i&63)&1 == 1 {
					gotAcc = append(gotAcc, int32(lo+i))
				}
			}
			for i, u := range touched {
				if slices.Contains(acc, u) {
					wantReqs += int64(batch[i])
				}
			}
			for i := hi - lo; i < 64*len(accepted); i++ {
				if accepted[i>>6]>>(i&63)&1 == 1 {
					t.Fatalf("round (%v, %v): accept bit %d past the window", counts, wraps, i)
				}
			}
			switch {
			case !slices.Equal(gotAcc, acc):
				t.Fatalf("round (%v, %v): accepted %v, Decide %v", counts, wraps, gotAcc, acc)
			case !slices.Equal(nb, wantNB) || sat != wantSat || accReqs != wantReqs:
				t.Fatalf("round (%v, %v): newly burned %v, %d saturated, %d accepted requests; Decide %v, %d, %d",
					counts, wraps, nb, sat, accReqs, wantNB, wantSat, wantReqs)
			case !slices.Equal(dense.load, pairs.load) || !slices.Equal(dense.receivedTotal, pairs.receivedTotal) || !slices.Equal(dense.burned, pairs.burned):
				t.Fatalf("round (%v, %v): shard states differ:\n dense %+v\n pairs %+v", counts, wraps, dense, pairs)
			}
		}
	})
}

// TestUpdateAssignmentsAgree runs Runners with and without
// TrackAssignments at 1, 2 and 3 workers on two implicit topologies,
// one of uniform and one of varying client degree, and on an
// Erdős–Rényi CSR graph. One worker on one shard counts every round;
// two and three workers on four shards count the implicit topologies'
// rounds, decided by several shard owners at once, and route the CSR
// graph's. Every Result field the runs share must agree, and the
// recorded assignments must be the same at every worker count.
func TestUpdateAssignmentsAgree(t *testing.T) {
	uniform, err := gen.RegularImplicit(4096, 48, 0xA551)
	if err != nil {
		t.Fatal(err)
	}
	varying, err := gen.AlmostRegularImplicit(gen.DefaultAlmostRegularConfig(4096), 0xA552)
	if err != nil {
		t.Fatal(err)
	}
	irregular, err := gen.ErdosRenyi(3000, 2500, 0.01, true, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []bipartite.Topology{uniform, varying, irregular} {
		_, pq := topo.(*gen.Implicit)
		for _, variant := range []Variant{SAER, RAES} {
			var ref *Result
			for workers := 1; workers <= 3; workers++ {
				// One worker on one shard counts every round; more
				// workers over four shards count the point-query rounds.
				shards := 4
				if workers == 1 {
					shards = 1
				}
				base := Config{Variant: variant, D: 3, C: 2, Seed: 11, Workers: workers, Shards: shards,
					TrackRounds: true, TrackLoads: true}
				plain, err := base.Run(topo)
				if err != nil {
					t.Fatal(err)
				}
				tracked := base
				tracked.TrackAssignments = true
				r, err := tracked.NewRunner(topo)
				if err != nil {
					t.Fatal(err)
				}
				want := pq || workers == 1
				if balls := int64(3 * topo.NumClients()); r.countsRound(balls) != want || len(r.servers) < shards {
					t.Fatalf("%v workers=%d: round 1 counted %t over %d shards, want counted %t over at least %d",
						variant, workers, r.countsRound(balls), len(r.servers), want, shards)
				}
				got := r.Run()
				if len(got.Assignments) != topo.NumClients() {
					t.Fatalf("%v workers=%d: %d assignment lists for %d clients", variant, workers, len(got.Assignments), topo.NumClients())
				}
				shared := *got
				shared.Assignments = nil
				if !reflect.DeepEqual(&shared, plain) {
					t.Errorf("%v workers=%d: tracking assignments changes the result:\n  plain   %+v\n  tracked %+v", variant, workers, plain, &shared)
				}
				if ref == nil {
					ref = got
				} else if !reflect.DeepEqual(got, ref) {
					t.Errorf("%v workers=%d: tracked result differs from one worker's", variant, workers)
				}
			}
		}
	}
}

// BenchmarkCountedDecide runs the dense counted decide on round 1's
// density, two balls per server, on a freshly reset SAER shard (c = 4,
// d = 2), in ns per server, in two shapes:
//
//   - runner: the Runner's, one 131,072-server window (pq-dense's shard
//     width) of two workers' byte tallies, refilled between iterations;
//   - server: a wire server's, ServerShard.DecideCounted over a
//     32,768-server window (wire-loopback's) that starts at server
//     32,771, not a multiple of 64, reading a one-worker view of the
//     frame's counts, with the newly burned list and the accepted
//     requests a bank reports.
func BenchmarkCountedDecide(b *testing.B) {
	b.Run("runner", func(b *testing.B) {
		const window = 1 << 17
		src := rng.New(1)
		round := make(countedRound, 2)
		for w := range round {
			for range window {
				round[w] = append(round[w], int32(src.Intn(window)))
			}
		}
		sh, err := NewServerShard(SAER, 8, 0, window)
		if err != nil {
			b.Fatal(err)
		}
		bt := engine.NewByteTally(2, window)
		accepted := make([]uint64, window/64)
		for b.Loop() {
			b.StopTimer()
			round.count(bt)
			sh.Reset(nil)
			clear(accepted)
			b.StartTimer()
			sh.decideCounted(bt, accepted, nil)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*window), "ns/server")
	})
	b.Run("server", func(b *testing.B) {
		const lo, window = 1<<15 + 3, 1 << 15
		src := rng.New(1)
		counts := make([]uint8, window)
		for range 2 * window {
			counts[src.Intn(window)]++
		}
		sh, err := NewServerShard(SAER, 8, lo, lo+window)
		if err != nil {
			b.Fatal(err)
		}
		accepted := make([]uint64, sh.WindowWords())
		var burned []int32
		for b.Loop() {
			b.StopTimer()
			sh.Reset(nil)
			b.StartTimer()
			if burned, _, _, err = sh.DecideCounted(counts, nil, accepted, burned[:0]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*window), "ns/server")
	})
}
