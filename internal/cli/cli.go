// Package cli holds the small pieces shared by the command-line tools:
// parsing a graph-family specification into a generated topology and
// parsing protocol names. Keeping them here (rather than duplicated in
// each main package) makes them unit-testable.
package cli

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bipartite"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

// GraphSpec describes a topology to generate from command-line flags.
type GraphSpec struct {
	// Kind is one of: regular, simple-regular, trust, erdos, almost,
	// proximity, complete.
	Kind string
	// N is the number of clients and servers.
	N int
	// Delta is the client degree; zero selects ⌈log₂²(n)⌉ (capped at n).
	Delta int
	// ExpectedDegree is only used by proximity graphs: the expected number
	// of servers within the connection radius. Zero falls back to Delta.
	ExpectedDegree int
	// Seed drives the generator.
	Seed uint64
}

// Kinds lists the accepted values of GraphSpec.Kind.
func Kinds() []string {
	return []string{"regular", "simple-regular", "trust", "erdos", "almost", "proximity", "complete"}
}

// DefaultDelta returns the Θ(log² n) degree used when no degree is given.
func DefaultDelta(n int) int {
	if n < 2 {
		return 1
	}
	l := math.Log2(float64(n))
	d := int(math.Ceil(l * l))
	if d > n {
		d = n
	}
	if d < 1 {
		d = 1
	}
	return d
}

// Build generates the topology the spec describes.
func (s GraphSpec) Build() (*bipartite.Graph, error) {
	if s.N <= 0 {
		return nil, fmt.Errorf("cli: graph size must be positive, got %d", s.N)
	}
	delta := s.Delta
	if delta <= 0 {
		delta = DefaultDelta(s.N)
	}
	src := rng.New(s.Seed)
	switch strings.ToLower(strings.TrimSpace(s.Kind)) {
	case "regular", "":
		return gen.Regular(s.N, delta, src)
	case "simple-regular":
		return gen.RegularSimple(s.N, delta, src)
	case "trust":
		return gen.TrustSubset(s.N, s.N, delta, src)
	case "erdos":
		return gen.ErdosRenyi(s.N, s.N, float64(delta)/float64(s.N), true, src)
	case "almost":
		return gen.AlmostRegular(gen.DefaultAlmostRegularConfig(s.N), src)
	case "complete":
		return gen.Complete(s.N, s.N)
	case "proximity":
		deg := s.ExpectedDegree
		if deg <= 0 {
			deg = delta
		}
		gg, err := gen.Proximity(gen.ProximityConfig{
			NumClients: s.N,
			NumServers: s.N,
			Radius:     gen.RadiusForExpectedDegree(s.N, deg),
			MinDegree:  2,
		}, src)
		if err != nil {
			return nil, err
		}
		return gg.Graph, nil
	default:
		return nil, fmt.Errorf("cli: unknown graph family %q (want one of %s)", s.Kind, strings.Join(Kinds(), ", "))
	}
}

// ParseProtocol maps a protocol name to the core variant.
func ParseProtocol(name string) (core.Variant, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "saer":
		return core.SAER, nil
	case "raes":
		return core.RAES, nil
	default:
		return core.SAER, fmt.Errorf("cli: unknown protocol %q (want saer or raes)", name)
	}
}

// TopologyMode selects the storage representation of a generated
// topology.
type TopologyMode int

const (
	// TopologyCSR materializes the graph with the classic generators
	// (double-CSR adjacency, O(n·Δ) memory).
	TopologyCSR TopologyMode = iota
	// TopologyImplicit builds the regenerative topology: neighborhoods
	// are recomputed on demand from per-client seeds, O(n) memory. Only
	// the regular, erdos, trust and almost families have implicit
	// samplers.
	TopologyImplicit
	// TopologyImplicitCSR materializes the implicit sampler's edge set
	// into a CSR graph: the memory cost of TopologyCSR with the exact
	// edge multiset of TopologyImplicit, so a run on either is
	// bit-for-bit identical — the knob that demonstrates the equivalence
	// from the command line.
	TopologyImplicitCSR
)

// TopologyModes lists the accepted -topology values.
func TopologyModes() []string { return []string{"csr", "implicit", "implicit-csr"} }

// ParseTopologyMode maps a -topology flag value to its mode.
func ParseTopologyMode(name string) (TopologyMode, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "csr", "":
		return TopologyCSR, nil
	case "implicit":
		return TopologyImplicit, nil
	case "implicit-csr":
		return TopologyImplicitCSR, nil
	default:
		return TopologyCSR, fmt.Errorf("cli: unknown topology mode %q (want one of %s)", name, strings.Join(TopologyModes(), ", "))
	}
}

// buildImplicit generates the regenerative topology for the families that
// have an implicit sampler.
func (s GraphSpec) buildImplicit() (*gen.Implicit, error) {
	if s.N <= 0 {
		return nil, fmt.Errorf("cli: graph size must be positive, got %d", s.N)
	}
	delta := s.Delta
	if delta <= 0 {
		delta = DefaultDelta(s.N)
	}
	switch strings.ToLower(strings.TrimSpace(s.Kind)) {
	case "regular", "":
		return gen.RegularImplicit(s.N, delta, s.Seed)
	case "erdos":
		return gen.ErdosRenyiImplicit(s.N, s.N, float64(delta)/float64(s.N), true, s.Seed)
	case "trust":
		return gen.TrustSubsetImplicit(s.N, s.N, delta, s.Seed)
	case "almost":
		return gen.AlmostRegularImplicit(gen.DefaultAlmostRegularConfig(s.N), s.Seed)
	default:
		return nil, fmt.Errorf("%w: %q (implicit families: regular, erdos, trust, almost)", gen.ErrNoImplicit, s.Kind)
	}
}

// BuildTopology generates the topology the spec describes in the
// requested representation. TopologyCSR uses the classic materialized
// generators; TopologyImplicit and TopologyImplicitCSR share the
// regenerative samplers, differing only in storage.
func (s GraphSpec) BuildTopology(mode TopologyMode) (bipartite.Topology, error) {
	switch mode {
	case TopologyCSR:
		return s.Build()
	case TopologyImplicit:
		return s.buildImplicit()
	case TopologyImplicitCSR:
		t, err := s.buildImplicit()
		if err != nil {
			return nil, err
		}
		return t.Materialize()
	default:
		return nil, fmt.Errorf("cli: unknown topology mode %d", int(mode))
	}
}

// ParseChurnBackend maps a churn-backend name to its selector (see
// churn.Backend; both backends produce bit-for-bit identical runs).
func ParseChurnBackend(name string) (churn.Backend, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "implicit", "":
		return churn.BackendImplicit, nil
	case "csr-patch":
		return churn.BackendCSRPatch, nil
	default:
		return churn.BackendImplicit, fmt.Errorf("cli: unknown churn backend %q (want implicit or csr-patch)", name)
	}
}
