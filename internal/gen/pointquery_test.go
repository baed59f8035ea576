package gen

import (
	"testing"

	"repro/internal/bipartite"
	"repro/internal/rng"
)

// TestSampleAtMatchesSampleRow pins the point-query identity of the
// partial-shuffle sampler: SampleAt(s, pool, i) equals
// SampleRow(s, pool, k, nil)[i] for every i < k, and both consume
// exactly one stream value (the permutation key), leaving the stream in
// the same state. SampleRow runs the lockstep kernel and SampleAt the
// scalar apply, so the cases include the churn-rows benchmark shape
// (pool 2¹⁶, k = 256) and pools of odd bit width, whose images
// cycle-walk.
func TestSampleAtMatchesSampleRow(t *testing.T) {
	cases := []struct{ pool, k int }{
		{1, 1}, {2, 2}, {7, 7}, {64, 40}, {1000, 40},
		{1 << 16, 256}, {1<<16 + 1, 257}, {1 << 17, 256}, {70000, 255}, {1 << 9, 130},
	}
	for _, tc := range cases {
		pool, k := tc.pool, tc.k
		for seed := uint64(0); seed < 5; seed++ {
			s := rng.StreamAt(seed, 11)
			row := SampleRow(&s, pool, k, nil)
			after := s.Uint64()
			for i := 0; i < k; i++ {
				s2 := rng.StreamAt(seed, 11)
				if got := SampleAt(&s2, pool, i); got != row[i] {
					t.Fatalf("pool=%d seed=%d: SampleAt(%d) = %d, row[%d] = %d", pool, seed, i, got, i, row[i])
				}
				if next := s2.Uint64(); next != after {
					t.Fatalf("pool=%d seed=%d i=%d: SampleAt left the stream in a different state", pool, seed, i)
				}
			}
		}
	}
}

// TestNeighborAtMatchesRow is the cross-family point-query property
// suite: for every implicit family and every client, NeighborAt(v, i)
// must equal AppendClientNeighbors(v, nil)[i] at every index i, and
// ClientDegree must equal the row length. Families without point-query
// support (Erdős–Rényi) must report CanPointQuery() == false.
func TestNeighborAtMatchesRow(t *testing.T) {
	regular, err := RegularImplicit(257, 19, 0xABCD)
	if err != nil {
		t.Fatal(err)
	}
	// Rows run four permutations per kernel step; Δ = 19 and Δ = 22 leave
	// a tail of 3 and 2, and n = 300 has an odd bit width, so its images
	// cycle-walk.
	regularOdd, err := RegularImplicit(300, 22, 0xD1CE)
	if err != nil {
		t.Fatal(err)
	}
	trust, err := TrustSubsetImplicit(200, 111, 17, 0x7057)
	if err != nil {
		t.Fatal(err)
	}
	almost, err := AlmostRegularImplicit(DefaultAlmostRegularConfig(256), 21)
	if err != nil {
		t.Fatal(err)
	}
	er, err := ErdosRenyiImplicit(128, 90, 0.07, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	if er.CanPointQuery() {
		t.Error("erdos-renyi: skip-sampled rows unexpectedly answer point queries")
	}

	for _, tc := range []struct {
		name string
		topo *Implicit
	}{
		{"regular", regular},
		{"regular-odd-width", regularOdd},
		{"trust-subset", trust},
		{"almost-regular", almost},
	} {
		if !tc.topo.CanPointQuery() {
			t.Errorf("%s: family does not answer point queries", tc.name)
			continue
		}
		var row []int32
		for v := 0; v < tc.topo.NumClients(); v++ {
			row = tc.topo.AppendClientNeighbors(v, row[:0])
			if got := tc.topo.ClientDegree(v); got != len(row) {
				t.Fatalf("%s: ClientDegree(%d) = %d, row length %d", tc.name, v, got, len(row))
			}
			for i, want := range row {
				if got := tc.topo.NeighborAt(v, i); got != want {
					t.Fatalf("%s: NeighborAt(%d, %d) = %d, row[%d] = %d", tc.name, v, i, got, i, want)
				}
			}
		}
	}
}

// TestNumEdgesUniformDegreeO1 pins the O(1) NumEdges answer of the
// uniform-degree families against the row-by-row sum.
func TestNumEdgesUniformDegreeO1(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() (*Implicit, error)
	}{
		{"regular", func() (*Implicit, error) { return RegularImplicit(300, 12, 5) }},
		{"trust-subset", func() (*Implicit, error) { return TrustSubsetImplicit(211, 150, 9, 5) }},
		{"erdos-renyi", func() (*Implicit, error) { return ErdosRenyiImplicit(100, 80, 0.1, true, 5) }},
		{"almost-regular", func() (*Implicit, error) {
			return AlmostRegularImplicit(DefaultAlmostRegularConfig(128), 5)
		}},
	} {
		topo, err := tc.mk()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := 0
		for v := 0; v < topo.NumClients(); v++ {
			want += len(topo.AppendClientNeighbors(v, nil))
		}
		if got := topo.NumEdges(); got != want {
			t.Errorf("%s: NumEdges() = %d, row sum %d", tc.name, got, want)
		}
	}
}

// TestUniformDegree pins bipartite.PointQueryable's UniformDegree on
// every gen point-queryable family and on CSR graphs: wherever it
// reports d > 0, every ClientDegree(v) equals d, and it reports 0
// exactly where two clients' degrees differ. The regular and
// trust-subset families and their CSR twins must report their Δ, so the
// check is not vacuous, and the default almost-regular instance, whose
// heavy clients have more neighbors, must report 0.
func TestUniformDegree(t *testing.T) {
	regular, err := RegularImplicit(300, 22, 0xD1CE)
	if err != nil {
		t.Fatal(err)
	}
	trust, err := TrustSubsetImplicit(200, 111, 17, 0x7057)
	if err != nil {
		t.Fatal(err)
	}
	almost, err := AlmostRegularImplicit(DefaultAlmostRegularConfig(512), 6)
	if err != nil {
		t.Fatal(err)
	}
	topos := map[string]bipartite.PointQueryable{"regular": regular, "trust-subset": trust, "almost-regular": almost}
	want := map[string]int{"regular": 22, "trust-subset": 17, "almost-regular": 0}
	for name, topo := range map[string]*Implicit{"regular": regular, "trust-subset": trust, "almost-regular": almost} {
		csr, err := topo.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		topos[name+" csr"], want[name+" csr"] = csr, want[name]
	}
	for name, pq := range topos {
		d := pq.UniformDegree()
		if d != want[name] {
			t.Errorf("%s: UniformDegree() = %d, want %d", name, d, want[name])
		}
		differ := false
		for v := 0; v < pq.NumClients(); v++ {
			dv := pq.ClientDegree(v)
			if d > 0 && dv != d {
				t.Fatalf("%s: UniformDegree() = %d but ClientDegree(%d) = %d", name, d, v, dv)
			}
			differ = differ || dv != pq.ClientDegree(0)
		}
		if d == 0 && !differ {
			t.Errorf("%s: UniformDegree() = 0 but every client has degree %d", name, pq.ClientDegree(0))
		}
	}
}
