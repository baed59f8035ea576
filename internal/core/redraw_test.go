package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netsim"
	"repro/internal/rng"
)

// golden is SplitMix64's state increment.
const golden = 0x9e3779b97f4a7c15

// streamSeedSalt is rng's stream-family salt; redrawSeed's precondition
// check fails if the two drift apart.
const streamSeedSalt = 0xa0761d6478bd642f

// inverse returns c⁻¹ mod 2⁶⁴ for odd c (Newton's iteration doubles the
// correct low bits from 3 to 96 in five steps).
func inverse(c uint64) uint64 {
	x := c
	for range 5 {
		x *= 2 - c*x
	}
	return x
}

// unmix inverts the SplitMix64 finalizer: each xorshift is undone by
// xoring in the further shifts, each multiply by the multiplier's
// inverse.
func unmix(z uint64) uint64 {
	z ^= z>>31 ^ z>>62
	z *= inverse(0x94d049bb133111eb)
	z ^= z>>27 ^ z>>54
	z *= inverse(0xbf58476d1ce4e5b9)
	z ^= z>>30 ^ z>>60
	return z
}

// redrawSeed returns the protocol seed under which client v's stream
// starts in the state whose next output is 0: StreamAt(seed, v)'s state
// is the finalizer of (seed ^ salt) + (v+1)·golden, and the state −golden
// advances to 0, which the finalizer maps to 0.
func redrawSeed(v int) uint64 {
	return (unmix(^uint64(golden)+1) - uint64(v+1)*golden) ^ streamSeedSalt
}

// TestLemireRedrawEnginesAgree runs a protocol whose seed makes one
// client's first value 0. Its first ball draws under the degree 100, not
// a power of two, so Intn's threshold loop redraws it: the block draw's
// kernel flags that lane and leaves its vector to the scalar loop. The
// Runner at 1, 2 and 3 workers and a Driver over a LocalBank, all of
// which draw through rng.IntnBlock, must equal netsim, which draws every
// ball with its own Intn call.
func TestLemireRedrawEnginesAgree(t *testing.T) {
	const v = 1234
	seed := redrawSeed(v)
	if s := rng.StreamAt(seed, v); s.Uint64() != 0 {
		t.Fatalf("seed %#x: client %d's first value is not 0; the stream derivation changed", seed, v)
	}
	topo, err := gen.RegularImplicit(4096, 100, 0xDE1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topo.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []core.Variant{core.SAER, core.RAES} {
		cfg := core.Config{Variant: variant, D: 2, C: 2, Seed: seed, TrackRounds: true, TrackLoads: true}
		ref, err := netsim.Run(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3} {
			c := cfg
			c.Workers = workers
			got, err := c.Run(topo)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s: Runner workers=%d differs from netsim: %v vs %v", variant, workers, got, ref)
			}
		}
		c := cfg
		c.Workers = 2
		dr, err := core.NewLocalDriver(topo, c, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dr.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: Driver over LocalBank differs from netsim: %v vs %v", variant, got, ref)
		}
	}
}
