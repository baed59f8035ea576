// Package workload generates client demand vectors — how many requests
// each client actually holds — for the experiments that go beyond the
// paper's uniform "every client has exactly d balls" setting.
//
// The paper itself treats the general case of *at most* d balls per client
// as a straightforward variant (Section 2.2); the related work it builds
// on also studies heavily-loaded and heterogeneous-demand regimes. The
// generators here produce those demand shapes:
//
//   - Uniform: every client holds exactly d requests (the paper's base
//     case).
//   - UniformRandom: every client holds an independent uniform number of
//     requests in [0, d].
//   - Zipf: demands follow a truncated Zipf distribution — a few hot
//     clients hold the maximum demand while most hold very little, the
//     classic skew of real request workloads.
//   - Bursty: a fraction of clients hold the maximum demand and the rest a
//     baseline demand, modeling tenant bursts.
//
// All generators return a demand vector compatible with
// core.Config.RequestCounts (entries in [0, maxD]) together with the
// total number of balls.
package workload

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Demand is a per-client request-count vector.
type Demand struct {
	// Counts[v] is the number of balls client v must place.
	Counts []int
	// Total is the sum of Counts.
	Total int
	// MaxPerClient is the maximum admissible per-client demand (the d the
	// protocol must be configured with).
	MaxPerClient int
	// Name describes the generator that produced the vector.
	Name string
}

// Uniform returns the paper's base case: every client holds exactly d
// requests.
func Uniform(numClients, d int) (Demand, error) {
	if err := validate(numClients, d); err != nil {
		return Demand{}, err
	}
	counts := make([]int, numClients)
	for i := range counts {
		counts[i] = d
	}
	return Demand{Counts: counts, Total: numClients * d, MaxPerClient: d, Name: fmt.Sprintf("uniform-%d", d)}, nil
}

// UniformRandom returns independent uniform demands in [0, d].
func UniformRandom(numClients, d int, src *rng.Source) (Demand, error) {
	if err := validate(numClients, d); err != nil {
		return Demand{}, err
	}
	counts := make([]int, numClients)
	total := 0
	for i := range counts {
		counts[i] = src.Intn(d + 1)
		total += counts[i]
	}
	return Demand{Counts: counts, Total: total, MaxPerClient: d, Name: fmt.Sprintf("uniform-random-%d", d)}, nil
}

// Zipf returns demands proportional to a truncated Zipf law with exponent
// s over the ranks 1..numClients, scaled into [1, d]: the hottest client
// holds d requests, the coldest holds 1 (every client has at least one
// request so the assignment problem stays non-trivial for all of them).
// Client ranks are randomly permuted so that hot clients are spread over
// the id space.
func Zipf(numClients, d int, s float64, src *rng.Source) (Demand, error) {
	if err := validate(numClients, d); err != nil {
		return Demand{}, err
	}
	if s <= 0 {
		return Demand{}, fmt.Errorf("workload: Zipf exponent must be positive, got %v", s)
	}
	counts := make([]int, numClients)
	total := 0
	// weight(rank) = rank^-s, normalized so rank 1 maps to d and the
	// smallest weight maps to at least 1.
	minW := math.Pow(float64(numClients), -s)
	perm := src.Perm(numClients)
	for rank := 1; rank <= numClients; rank++ {
		w := math.Pow(float64(rank), -s)
		// Linear map [minW, 1] -> [1, d].
		scaled := 1 + (float64(d)-1)*(w-minW)/(1-minW)
		c := int(math.Round(scaled))
		if c < 1 {
			c = 1
		}
		if c > d {
			c = d
		}
		counts[perm[rank-1]] = c
		total += c
	}
	return Demand{Counts: counts, Total: total, MaxPerClient: d, Name: fmt.Sprintf("zipf-%.1f-max%d", s, d)}, nil
}

// Bursty gives a fraction hotFraction of clients the maximum demand d and
// everyone else baseline requests (baseline must be in [0, d]).
func Bursty(numClients, d, baseline int, hotFraction float64, src *rng.Source) (Demand, error) {
	if err := validate(numClients, d); err != nil {
		return Demand{}, err
	}
	if baseline < 0 || baseline > d {
		return Demand{}, fmt.Errorf("workload: baseline %d outside [0, %d]", baseline, d)
	}
	if hotFraction < 0 || hotFraction > 1 {
		return Demand{}, fmt.Errorf("workload: hot fraction %v outside [0,1]", hotFraction)
	}
	counts := make([]int, numClients)
	total := 0
	hot := int(math.Round(hotFraction * float64(numClients)))
	hotSet := src.Sample(numClients, hot)
	for i := range counts {
		counts[i] = baseline
	}
	for _, v := range hotSet {
		counts[v] = d
	}
	for _, c := range counts {
		total += c
	}
	return Demand{Counts: counts, Total: total, MaxPerClient: d, Name: fmt.Sprintf("bursty-%d%%-max%d", int(hotFraction*100), d)}, nil
}

// MeanDemand returns the average number of requests per client.
func (d Demand) MeanDemand() float64 {
	if len(d.Counts) == 0 {
		return 0
	}
	return float64(d.Total) / float64(len(d.Counts))
}

// Validate checks that the vector is usable with the given protocol d.
func (d Demand) Validate() error {
	if len(d.Counts) == 0 {
		return fmt.Errorf("workload: empty demand vector")
	}
	total := 0
	for v, c := range d.Counts {
		if c < 0 || c > d.MaxPerClient {
			return fmt.Errorf("workload: client %d demand %d outside [0, %d]", v, c, d.MaxPerClient)
		}
		total += c
	}
	if total != d.Total {
		return fmt.Errorf("workload: recorded total %d does not match counts (%d)", d.Total, total)
	}
	return nil
}

func validate(numClients, d int) error {
	if numClients <= 0 {
		return fmt.Errorf("workload: need a positive number of clients, got %d", numClients)
	}
	if d <= 0 {
		return fmt.Errorf("workload: need a positive maximum demand, got %d", d)
	}
	return nil
}
