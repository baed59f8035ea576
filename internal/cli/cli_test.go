package cli

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
)

func TestDefaultDelta(t *testing.T) {
	if DefaultDelta(1) != 1 {
		t.Errorf("DefaultDelta(1) = %d", DefaultDelta(1))
	}
	if got := DefaultDelta(1024); got != 100 {
		t.Errorf("DefaultDelta(1024) = %d, want 100", got)
	}
	if DefaultDelta(4) > 4 {
		t.Error("delta must never exceed n")
	}
}

func TestBuildAllKinds(t *testing.T) {
	for _, kind := range Kinds() {
		spec := GraphSpec{Kind: kind, N: 256, Seed: 7}
		g, err := spec.Build()
		if err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		if g.NumClients() != 256 || g.NumServers() != 256 {
			t.Errorf("kind %q: wrong dimensions %d/%d", kind, g.NumClients(), g.NumServers())
		}
		if err := g.Validate(); err != nil {
			t.Errorf("kind %q: invalid graph: %v", kind, err)
		}
	}
}

func TestBuildDefaultsToRegular(t *testing.T) {
	g, err := GraphSpec{N: 128, Delta: 8, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsRegular(8) {
		t.Error("empty kind should build a regular graph")
	}
}

func TestBuildRespectsExplicitDelta(t *testing.T) {
	g, err := GraphSpec{Kind: "trust", N: 200, Delta: 13, Seed: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumClients(); v++ {
		if g.ClientDegree(v) != 13 {
			t.Fatalf("client %d degree %d, want 13", v, g.ClientDegree(v))
		}
	}
}

func TestBuildProximityExpectedDegree(t *testing.T) {
	spec := GraphSpec{Kind: "proximity", N: 2000, ExpectedDegree: 40, Seed: 3}
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if math.Abs(st.MeanClientDeg-40) > 10 {
		t.Errorf("mean degree %v, want about 40", st.MeanClientDeg)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := (GraphSpec{Kind: "regular", N: 0}).Build(); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := (GraphSpec{Kind: "nope", N: 16}).Build(); err == nil {
		t.Error("unknown kind accepted")
	} else if !strings.Contains(err.Error(), "unknown graph family") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestParseProtocol(t *testing.T) {
	cases := map[string]core.Variant{
		"saer": core.SAER, "SAER": core.SAER, " Saer ": core.SAER,
		"raes": core.RAES, "RAES": core.RAES,
	}
	for in, want := range cases {
		got, err := ParseProtocol(in)
		if err != nil || got != want {
			t.Errorf("ParseProtocol(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseProtocol("greedy"); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestParseTopologyMode(t *testing.T) {
	cases := map[string]TopologyMode{
		"csr": TopologyCSR, "CSR": TopologyCSR, "": TopologyCSR,
		"implicit": TopologyImplicit, " Implicit ": TopologyImplicit,
		"implicit-csr": TopologyImplicitCSR,
	}
	for in, want := range cases {
		got, err := ParseTopologyMode(in)
		if err != nil || got != want {
			t.Errorf("ParseTopologyMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseTopologyMode("streaming"); err == nil {
		t.Error("unknown topology mode accepted")
	}
}

func TestBuildTopologyImplicitFamilies(t *testing.T) {
	for _, kind := range []string{"regular", "erdos", "trust", "almost"} {
		spec := GraphSpec{Kind: kind, N: 256, Seed: 7}
		topo, err := spec.BuildTopology(TopologyImplicit)
		if err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		if topo.NumClients() != 256 || topo.NumServers() != 256 {
			t.Errorf("kind %q: wrong dimensions %d/%d", kind, topo.NumClients(), topo.NumServers())
		}
		if err := topo.Validate(); err != nil {
			t.Errorf("kind %q: invalid topology: %v", kind, err)
		}
		// The materialized twin holds the identical edge multiset in the
		// identical per-client order.
		csr, err := spec.BuildTopology(TopologyImplicitCSR)
		if err != nil {
			t.Fatalf("kind %q implicit-csr: %v", kind, err)
		}
		var buf []int32
		for v := 0; v < topo.NumClients(); v++ {
			buf = topo.AppendClientNeighbors(v, buf[:0])
			row := csr.AppendClientNeighbors(v, nil)
			if len(buf) != len(row) {
				t.Fatalf("kind %q client %d: implicit degree %d, csr %d", kind, v, len(buf), len(row))
			}
			for i := range buf {
				if buf[i] != row[i] {
					t.Fatalf("kind %q client %d slot %d: implicit %d, csr %d", kind, v, i, buf[i], row[i])
				}
			}
		}
	}
}

func TestBuildTopologyImplicitUnsupportedKind(t *testing.T) {
	if _, err := (GraphSpec{Kind: "proximity", N: 256, Seed: 1}).BuildTopology(TopologyImplicit); err == nil {
		t.Error("proximity should have no implicit topology")
	}
}

func TestBuildTopologyCSRMatchesBuild(t *testing.T) {
	spec := GraphSpec{Kind: "trust", N: 128, Delta: 9, Seed: 4}
	topo, err := spec.BuildTopology(TopologyCSR)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	csr, ok := topo.(*bipartite.Graph)
	if !ok {
		t.Fatalf("TopologyCSR returned %T, want *bipartite.Graph", topo)
	}
	if csr.NumEdges() != g.NumEdges() {
		t.Errorf("edge counts differ: %d vs %d", csr.NumEdges(), g.NumEdges())
	}
}
