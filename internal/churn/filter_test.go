package churn

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/rng"
)

// failedSet returns an m-bit failed-server bitset with about pct percent
// of its bits set, exactly none at 0 and all m at 100.
func failedSet(m, pct int, seed uint64) []uint64 {
	bits := make([]uint64, (m+63)/64)
	r := rng.New(seed)
	for u := 0; u < m; u++ {
		if pct == 100 || r.Intn(100) < pct {
			bits[u>>6] |= 1 << (uint(u) & 63)
		}
	}
	return bits
}

// filterRows are the rows every filter case runs on: k random servers
// after a prefix of pre entries that the filter must leave alone, in a
// buffer that is 64-byte aligned or starts 4 bytes past its allocation.
func filterRows(m, k int, seed uint64) map[string]func() ([]int32, int) {
	mk := func(pre, skew int) func() ([]int32, int) {
		return func() ([]int32, int) {
			r := rng.New(seed)
			buf := make([]int32, skew, skew+pre+k)[skew:]
			for i := 0; i < pre; i++ {
				buf = append(buf, int32(-1-i))
			}
			for i := 0; i < k; i++ {
				buf = append(buf, int32(r.Intn(m)))
			}
			return buf, pre
		}
	}
	return map[string]func() ([]int32, int){
		"aligned":          mk(0, 0),
		"unaligned":        mk(0, 1),
		"prefixed":         mk(3, 0),
		"prefixed-skewed":  mk(5, 3),
		"long-prefix":      mk(40, 1),
		"prefix-of-blocks": mk(16, 0),
	}
}

// TestDropFailedKernelMatchesScalar pins the filter kernel and the
// dispatched dropFailed to the portable keepLive loop, over bitsets with
// 0%, 2%, 30% and 100% of their bits set and rows on both sides of the
// 16-entry block.
func TestDropFailedKernelMatchesScalar(t *testing.T) {
	t.Logf("dispatch: AVX-512 = %v", cpufeat.AVX512())
	type filterCase struct {
		name   string
		failed []uint64
		row    func() ([]int32, int)
	}
	var cases []filterCase
	for _, m := range []int{1 << 16, 1000, 70000} {
		for _, pct := range []int{0, 2, 30, 100} {
			failed := failedSet(m, pct, uint64(m+pct))
			for _, k := range []int{1, 15, 16, 17, 31, 32, 33, 255, 256} {
				for rowName, row := range filterRows(m, k, uint64(m*k+pct)) {
					cases = append(cases, filterCase{fmt.Sprintf("m=%d failed=%d%% k=%d %s", m, pct, k, rowName), failed, row})
				}
			}
		}
	}
	for _, c := range cases {
		buf, start := c.row()
		want := keepLive(append([]int32(nil), buf...), start, start, c.failed)
		topo := &Topology{failedBits: c.failed}
		if got := topo.dropFailed(buf, start); !reflect.DeepEqual(got, want) {
			t.Fatalf("dropFailed %s: got %v, want %v", c.name, got, want)
		}
	}
	requireAVX512(t)
	for _, c := range cases {
		buf, start := c.row()
		want := keepLive(append([]int32(nil), buf...), start, start, c.failed)
		n := (len(buf) - start) &^ 15
		kept := dropFailedAVX512(buf[start:start+n], c.failed)
		if kept < 0 {
			t.Fatalf("kernel %s: rejected an in-range row", c.name)
		}
		if got := keepLive(buf, start+kept, start+n, c.failed); !reflect.DeepEqual(got, want) {
			t.Fatalf("kernel %s: got %v, want %v", c.name, got, want)
		}
	}
}

// TestDropFailedKernelRejectsOutsideEntry checks that the kernel reads
// no word outside the bitset: an entry past its last bit, or negative,
// makes it report −1.
func TestDropFailedKernelRejectsOutsideEntry(t *testing.T) {
	requireAVX512(t)
	failed := failedSet(128, 30, 1)
	for _, bad := range []int32{128, 1 << 20, -1} {
		for lane := 0; lane < 32; lane += 7 {
			row := make([]int32, 32)
			for j := range row {
				row[j] = int32(j)
			}
			row[lane] = bad
			if n := dropFailedAVX512(row, failed); n != -1 {
				t.Errorf("entry %d in lane %d: kernel returned %d, want -1", bad, lane, n)
			}
		}
	}
}

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

// BenchmarkDropFailed measures the failure filter per row entry on
// 256-entry rows (churn-rows' width) over m = 2¹⁶ servers with 2% and
// 30% of them failed: "kernel" is the dispatched dropFailed (the AVX-512
// kernel where the CPU has it), "scalar" the portable keepLive loop.
// Each iteration first copies a fresh row into the buffer, since the
// filter works in place.
func BenchmarkDropFailed(b *testing.B) {
	const m, k, rows = 1 << 16, 256, 64
	for _, pct := range []int{2, 30} {
		failed := failedSet(m, pct, uint64(pct))
		topo := &Topology{failedBits: failed}
		r := rng.New(5)
		src := make([]int32, k*rows)
		for j := range src {
			src[j] = int32(r.Intn(m))
		}
		buf := make([]int32, k)
		run := func(b *testing.B, filter func([]int32) []int32) {
			i := 0
			for b.Loop() {
				lo := (i % rows) * k
				copy(buf, src[lo:lo+k])
				filter(buf)
				i++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(i*k), "ns/entry")
		}
		b.Run(fmt.Sprintf("failed=%d%%/kernel", pct), func(b *testing.B) {
			run(b, func(buf []int32) []int32 { return topo.dropFailed(buf, 0) })
		})
		b.Run(fmt.Sprintf("failed=%d%%/scalar", pct), func(b *testing.B) {
			run(b, func(buf []int32) []int32 { return keepLive(buf, 0, 0, failed) })
		})
	}
}
