package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with identical seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different seeds coincide %d/100 times", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("Reseed did not restart stream at step %d: got %d want %d", i, got, first[i])
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 10, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-square-style sanity check: 10 buckets, 100k samples; each bucket
	// should be within 5% of the expectation.
	r := New(99)
	const buckets = 10
	const samples = 100000
	counts := make([]int, buckets)
	for i := 0; i < samples; i++ {
		counts[r.Intn(buckets)]++
	}
	expect := float64(samples) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expect) > 0.05*expect {
			t.Errorf("bucket %d has %d samples, expected about %.0f", b, c, expect)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	for _, n := range []int{0, 1, 2, 5, 31, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleInt32Preserves(t *testing.T) {
	r := New(8)
	p := []int32{3, 1, 4, 1, 5, 9, 2, 6}
	sum := int32(0)
	for _, v := range p {
		sum += v
	}
	r.ShuffleInt32(p)
	var after int32
	for _, v := range p {
		after += v
	}
	if after != sum {
		t.Fatalf("ShuffleInt32 changed multiset: sum %d -> %d", sum, after)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(13)
	for _, tc := range []struct{ n, k int }{{10, 0}, {10, 1}, {10, 3}, {10, 10}, {1000, 5}, {1000, 900}} {
		s := r.Sample(tc.n, tc.k)
		if len(s) != tc.k {
			t.Fatalf("Sample(%d,%d) returned %d elements", tc.n, tc.k, len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= tc.n {
				t.Fatalf("Sample(%d,%d) element %d out of range", tc.n, tc.k, v)
			}
			if seen[v] {
				t.Fatalf("Sample(%d,%d) returned duplicate %d", tc.n, tc.k, v)
			}
			seen[v] = true
		}
	}
}

func TestSamplePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3, 4) did not panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestBernoulliEdges(t *testing.T) {
	r := New(17)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(19)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) empirical rate %v", p)
	}
}

func TestBinomialBounds(t *testing.T) {
	r := New(23)
	for i := 0; i < 200; i++ {
		v := r.Binomial(20, 0.5)
		if v < 0 || v > 20 {
			t.Fatalf("Binomial(20,0.5) = %d out of range", v)
		}
	}
	if r.Binomial(10, 0) != 0 {
		t.Error("Binomial(n, 0) should be 0")
	}
	if r.Binomial(10, 1) != 10 {
		t.Error("Binomial(n, 1) should be n")
	}
	if r.Binomial(0, 0.5) != 0 {
		t.Error("Binomial(0, p) should be 0")
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(29)
	const n = 50000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(0.25)
	}
	mean := float64(sum) / n
	// Expected failures before first success = (1-p)/p = 3.
	if math.Abs(mean-3) > 0.15 {
		t.Errorf("Geometric(0.25) empirical mean %v, want about 3", mean)
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric(0) did not panic")
		}
	}()
	New(1).Geometric(0)
}

func TestSplitIndependence(t *testing.T) {
	parent := New(31)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams coincide %d/100 times", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	mk := func() []uint64 {
		parent := New(41)
		out := make([]uint64, 0, 12)
		for range 4 {
			s := parent.Split()
			for i := 0; i < 3; i++ {
				out = append(out, s.Uint64())
			}
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Split is not deterministic at position %d", i)
		}
	}
}

// Property: Intn never escapes its range, for arbitrary seeds and sizes.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Perm always returns a permutation, for arbitrary seeds.
func TestQuickPermValid(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n % 64)
		p := New(seed).Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: identical seeds produce identical streams even through splits.
func TestQuickSeedDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a := New(seed)
		b := New(seed)
		as := a.Split()
		bs := b.Split()
		for i := 0; i < 20; i++ {
			if a.Uint64() != b.Uint64() || as.Uint64() != bs.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(1 << 20)
	}
	_ = sink
}

func TestStreamSliceDeterministicAndDistinct(t *testing.T) {
	a := NewStreamSlice(42, 64)
	b := NewStreamSlice(42, 64)
	for i := range a {
		x, y := a[i].Uint64(), b[i].Uint64()
		if x != y {
			t.Fatalf("stream %d diverges for identical seeds: %x vs %x", i, x, y)
		}
	}
	// Distinct entities must produce distinct early output.
	c := NewStreamSlice(42, 64)
	seen := map[uint64]int{}
	for i := range c {
		v := c[i].Uint64()
		if j, dup := seen[v]; dup {
			t.Fatalf("streams %d and %d emit the same first value", j, i)
		}
		seen[v] = i
	}
	// Reseeding in place must reproduce the fresh slice exactly.
	ReseedStreamSlice(c, 42)
	d := NewStreamSlice(42, 64)
	for i := range c {
		if c[i].Uint64() != d[i].Uint64() {
			t.Fatalf("ReseedStreamSlice diverges from NewStreamSlice at %d", i)
		}
	}
}

func TestStreamIntnRangeAndUniformity(t *testing.T) {
	var s Stream
	streams := NewStreamSlice(7, 1)
	s = streams[0]
	const n = 10
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := s.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
		counts[v]++
	}
	want := draws / n
	for v, got := range counts {
		if got < want*8/10 || got > want*12/10 {
			t.Errorf("value %d drawn %d times, want about %d", v, got, want)
		}
	}
}

func TestStreamIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Stream.Intn(0) did not panic")
		}
	}()
	var s Stream
	s.Intn(0)
}

func TestStreamAtMatchesReseedStreamSlice(t *testing.T) {
	const n = 257
	for _, seed := range []uint64{0, 1, 0xDEADBEEF} {
		streams := NewStreamSlice(seed, n)
		for i := 0; i < n; i++ {
			direct := StreamAt(seed, i)
			a, b := streams[i].Uint64(), direct.Uint64()
			if a != b {
				t.Fatalf("seed=%#x: StreamAt(%d) first draw %#x, slice stream draws %#x", seed, i, b, a)
			}
			if streams[i].Uint64() != direct.Uint64() {
				t.Fatalf("seed=%#x: StreamAt(%d) diverges on second draw", seed, i)
			}
		}
	}
}

func TestStreamFloat64Range(t *testing.T) {
	s := StreamAt(3, 0)
	sum := 0.0
	const draws = 20000
	for i := 0; i < draws; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; mean < 0.48 || mean > 0.52 {
		t.Errorf("Float64 mean %.4f, want about 0.5", mean)
	}
}

// TestPoisson checks determinism and that chunked sampling tracks the
// target mean for small and large lambda.
func TestPoisson(t *testing.T) {
	if New(1).Poisson(0) != 0 || New(1).Poisson(-3) != 0 {
		t.Fatal("non-positive lambda must sample 0")
	}
	a, b := New(7), New(7)
	for i := 0; i < 100; i++ {
		if a.Poisson(12.5) != b.Poisson(12.5) {
			t.Fatal("Poisson is not deterministic in the seed")
		}
	}
	src := New(42)
	for _, lambda := range []float64{0.5, 4, 30, 200, 1500} {
		const trials = 4000
		sum := 0
		for i := 0; i < trials; i++ {
			sum += src.Poisson(lambda)
		}
		mean := float64(sum) / trials
		// Poisson std is sqrt(lambda); allow six standard errors.
		tol := 6 * math.Sqrt(lambda/trials)
		if math.Abs(mean-lambda) > tol {
			t.Errorf("lambda=%v: sample mean %v off by more than %v", lambda, mean, tol)
		}
	}
}
