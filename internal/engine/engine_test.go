package engine

import (
	"runtime"
	"testing"
)

func TestNewPoolDefaults(t *testing.T) {
	if got := NewPool(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("NewPool(0).Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := NewPool(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("NewPool(-3).Workers() = %d, want GOMAXPROCS", got)
	}
	if got := NewPool(5).Workers(); got != 5 {
		t.Errorf("NewPool(5).Workers() = %d", got)
	}
}

func TestShardsPartitionRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 5, 16, 17, 100, 101} {
			covered := make([]int, n)
			for w := 0; w < workers; w++ {
				lo, hi := p.shard(n, w)
				if lo > hi {
					t.Fatalf("workers=%d n=%d w=%d: lo %d > hi %d", workers, n, w, lo, hi)
				}
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, c)
				}
			}
		}
	}
}
