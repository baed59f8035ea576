package gen

import (
	"fmt"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/cpufeat"
	"repro/internal/rng"
)

// requireAVX512 logs which path this process dispatched to and skips
// the kernel half of a test where the CPU (or the OS) lacks AVX-512, so
// a runner without it shows the skip instead of passing silently.
func requireAVX512(t *testing.T) {
	t.Helper()
	if !cpufeat.AVX512() {
		t.Skip("CPU or OS lacks AVX-512F/DQ: this process runs the pure-Go path only")
	}
	t.Log("AVX-512 kernels enabled: comparing them with the pure-Go reference")
}

// kernelBufs are the output buffers the row tests append to: empty,
// carrying a prefix, starting 4 bytes past an allocation (unaligned for
// the vector stores), and lacking the capacity for the row.
var kernelBufs = map[string]func(k int) []int32{
	"empty":          func(int) []int32 { return nil },
	"prefix":         func(k int) []int32 { return append(make([]int32, 0, k+3), -1, -2, -3) },
	"unaligned":      func(k int) []int32 { return append(make([]int32, 1, k+2)[1:], -7) },
	"under-capacity": func(k int) []int32 { return append(make([]int32, 0, 2+k/2), -1, -2) },
}

// checkAppended fails unless got is buf followed by want.
func checkAppended(t *testing.T, name string, buf, got, want []int32) {
	t.Helper()
	if len(got) != len(buf)+len(want) {
		t.Fatalf("%s: appended %d entries to %d, want %d", name, len(got)-len(buf), len(buf), len(want))
	}
	for i := range buf {
		if got[i] != buf[i] {
			t.Fatalf("%s: prefix entry %d overwritten: %d, want %d", name, i, got[i], buf[i])
		}
	}
	for i, w := range want {
		if g := got[len(buf)+i]; g != w {
			t.Fatalf("%s: entry %d = %d, scalar apply gives %d", name, i, g, w)
		}
	}
}

// TestFeistelKernelsMatchApply calls the two AVX-512 Feistel kernels
// directly, without the dispatch and the lockstep tails around them
// (TestLockstepRowsMatchApply and TestNeighborsAtMatchesNeighborAt check
// the dispatched paths), over pools of both bit-width parities (2¹⁶+1,
// 2¹⁷, 70,000 and the small odd widths walk), every whole-block length
// up to 256, unaligned and prefixed buffers, and for the prefix kernel a
// nonzero first input. Each kernel's raw pass is compared with applyOnce
// before any lane walks: a wrong lane can land on a cycle that never
// re-enters the pool, and the walk would then never return. This file
// sorts before implicit_test.go, so a broken kernel fails here before
// the row tests walk its output.
func TestFeistelKernelsMatchApply(t *testing.T) {
	requireAVX512(t)
	pools := []int{17, 100, 1000, 1 << 16, 1<<16 + 1, 1 << 17, 70000, 1 << 18}
	for _, pool := range pools {
		for _, k := range []int{1, 15, 16, 17, 31, 32, 33, 255, 256} {
			n := k &^ 15
			if k <= pool {
				f := newFeistel(pool, 0xC0DE^uint64(pool*7+k))
				pass := make([]int32, n)
				feistelPrefixAVX512(&f.keys, uint64(f.halfBits), uint64(f.mask), 0, pass)
				for i, y := range pass {
					if w := int32(f.applyOnce(uint64(i))); y != w {
						t.Fatalf("prefix kernel pool=%d n=%d: pass at x=%d gives %d, applyOnce %d", pool, n, i, y, w)
					}
				}
				want := make([]int32, n)
				for i := range want {
					want[i] = int32(f.apply(uint64(i)))
				}
				for bufName, mk := range kernelBufs {
					buf := mk(k)
					name := fmt.Sprintf("prefix kernel pool=%d n=%d buf=%s", pool, n, bufName)
					checkAppended(t, name, buf, f.appendPrefixAVX512(buf, n), want)
				}
				if n > 0 && n+48 <= pool {
					out := make([]int32, n)
					feistelPrefixAVX512(&f.keys, uint64(f.halfBits), uint64(f.mask), 48, out)
					for i, y := range out {
						if w := int32(f.applyOnce(uint64(48 + i))); y != w {
							t.Fatalf("prefix kernel pool=%d n=%d: pass at x=%d gives %d, applyOnce %d", pool, n, 48+i, y, w)
						}
					}
				}
			}

			perms := make([]feistel, k)
			for i := range perms {
				perms[i] = newFeistel(pool, 0xFACE^uint64(pool*13+k*101+i))
			}
			m := newMatchings(perms)
			r := rng.New(uint64(pool + k))
			// Inputs, keys and outputs one entry past their allocations.
			xs, ks, out := make([]int32, n+1)[1:], make([]int32, n+1)[1:], make([]int32, n+1)[1:]
			for j := range xs {
				xs[j], ks[j] = int32(r.Intn(pool)), int32(r.Intn(k))
			}
			f := &perms[0]
			if !feistelKeyedAVX512(m.keys, uint64(f.halfBits), uint64(f.mask), xs, ks, out) {
				t.Fatalf("keyed kernel pool=%d delta=%d: rejected in-range key indices", pool, k)
			}
			for j, y := range out {
				if w := int32(perms[ks[j]].applyOnce(uint64(xs[j]))); y != w {
					t.Fatalf("keyed kernel pool=%d delta=%d: lane %d (x=%d, key %d) pass gives %d, applyOnce %d",
						pool, k, j, xs[j], ks[j], y, w)
				}
			}
			m.keyedAVX512(xs, ks, out)
			for j, y := range out {
				if w := int32(perms[ks[j]].apply(uint64(xs[j]))); y != w {
					t.Fatalf("keyed kernel pool=%d delta=%d: lane %d (x=%d, key %d) = %d, apply gives %d",
						pool, k, j, xs[j], ks[j], y, w)
				}
			}
		}
	}
}

// TestKeyedKernelRejectsOutOfRangeIndex checks that the keyed kernel
// reads no key outside its table: an index ≥ Δ in any lane makes it
// report false, and the dispatched neighborsAt panics as NeighborAt's
// slice index would.
func TestKeyedKernelRejectsOutOfRangeIndex(t *testing.T) {
	const delta = 40
	perms := make([]feistel, delta)
	for i := range perms {
		perms[i] = newFeistel(1<<12, uint64(i))
	}
	m := newMatchings(perms)
	xs, ks := make([]int32, 32), make([]int32, 32)
	for lane := range ks {
		for j := range ks {
			ks[j] = int32(j % delta)
		}
		ks[lane] = delta + int32(lane)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("lane %d: neighborsAt accepted key index %d of %d", lane, ks[lane], delta)
				}
			}()
			m.neighborsAt(xs, ks, make([]int32, 32))
		}()
		if !cpufeat.AVX512() {
			continue
		}
		f := &m.perms[0]
		if feistelKeyedAVX512(m.keys, uint64(f.halfBits), uint64(f.mask), xs, ks, make([]int32, 32)) {
			t.Errorf("lane %d: kernel accepted key index %d of %d", lane, ks[lane], delta)
		}
	}
}

// TestNeighborsAtMatchesNeighborAt is the batched point-query contract
// for every gen point-queryable family and for the CSR graph: one
// NeighborsAt call over random (client, index) pairs, at every batch
// length up to 70 (so every kernel block and tail length occurs), equals
// NeighborAt lane by lane.
func TestNeighborsAtMatchesNeighborAt(t *testing.T) {
	t.Logf("dispatch: AVX-512 = %v", cpufeat.AVX512())
	mustImplicit := func(topo *Implicit, err error) bipartite.PointQueryable {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	regular, err := RegularImplicit(4096, 48, 1)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := regular.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	topos := map[string]bipartite.PointQueryable{
		"regular 2^12":   regular,
		"regular 2^17":   mustImplicit(RegularImplicit(1<<17, 20, 5)),
		"regular 70000":  mustImplicit(RegularImplicit(70000, 33, 2)),
		"trust-subset":   mustImplicit(TrustSubsetImplicit(500, 1<<16+1, 40, 3)),
		"almost-regular": mustImplicit(AlmostRegularImplicit(DefaultAlmostRegularConfig(1024), 4)),
		"csr":            csr,
	}
	for name, pq := range topos {
		r := rng.New(9)
		vs, idx := make([]int32, 70), make([]int32, 70)
		for j := range vs {
			v := r.Intn(pq.NumClients())
			vs[j], idx[j] = int32(v), int32(r.Intn(pq.ClientDegree(v)))
		}
		for n := 0; n <= len(vs); n++ {
			out := make([]int32, n)
			pq.NeighborsAt(vs, idx, out)
			for j, y := range out {
				if w := pq.NeighborAt(int(vs[j]), int(idx[j])); y != w {
					t.Fatalf("%s n=%d: NeighborsAt lane %d = %d, NeighborAt(%d, %d) = %d", name, n, j, y, vs[j], idx[j], w)
				}
			}
		}
	}
}
