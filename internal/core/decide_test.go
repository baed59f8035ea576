package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// shardModel is a plain reference for one ServerShard: the batch check
// and the SAER/RAES rules written out on int64 state, so no count can
// wrap.
type shardModel struct {
	variant           Variant
	capacity          int64
	lo, hi            int64
	load, received    []int64
	burned            []bool
	accepted, newBurn []int32
	saturated         int
}

func (m *shardModel) valid(touched, counts []int32) bool {
	if len(touched) != len(counts) {
		return false
	}
	for i, u := range touched {
		if int64(u) < m.lo || int64(u) >= m.hi || counts[i] <= 0 || i > 0 && u <= touched[i-1] {
			return false
		}
	}
	return true
}

func (m *shardModel) apply(touched, counts []int32) {
	m.accepted, m.newBurn, m.saturated = m.accepted[:0], m.newBurn[:0], 0
	for i, u := range touched {
		j, recv := int64(u)-m.lo, int64(counts[i])
		wasBurned := m.burned[j]
		m.received[j] += recv
		if m.received[j] > m.capacity && !wasBurned {
			m.burned[j] = true
			m.newBurn = append(m.newBurn, u)
		}
		accept := !wasBurned && !m.burned[j] // SAER
		if m.variant == RAES {
			accept = m.load[j]+recv <= m.capacity
		}
		if accept {
			m.load[j] += recv
			m.accepted = append(m.accepted, u)
		} else if m.variant == RAES || !wasBurned {
			m.saturated++
		}
	}
}

// fuzzBatch decodes one batch from b: a length byte (its top bit makes
// the counts one entry shorter), then one byte per server id and per
// count, read as int8 offsets from the window start and as int8 counts,
// with 0x7F and 0x80 standing for MaxInt32 and MinInt32. It returns the
// rest of b.
func fuzzBatch(b []byte, lo int32) (touched, counts []int32, rest []byte) {
	k := int(b[0] & 31)
	nc := k
	if b[0]&0x80 != 0 && k > 0 {
		nc--
	}
	b = b[1:]
	val := func(x byte, base int32) int32 {
		switch x {
		case 0x7F:
			return math.MaxInt32
		case 0x80:
			return math.MinInt32
		}
		return base + int32(int8(x))
	}
	for i := 0; i < k && len(b) > 0; i++ {
		touched = append(touched, val(b[0], lo))
		b = b[1:]
	}
	for i := 0; i < nc && len(b) > 0; i++ {
		counts = append(counts, val(b[0], 0))
		b = b[1:]
	}
	return touched, counts, b
}

// FuzzShardDecide runs batches decoded from the fuzz input through
// ServerShard.Decide on a fresh shard with a small window, beside the
// plain model above. Decide must reject a batch exactly when the model
// finds it malformed (not strictly ascending, outside [lo, hi), a count
// ≤ 0, or unequal lengths), leave loads, received totals and burned
// flags untouched when it rejects, and otherwise return the model's
// accepted and newly burned servers and saturation count.
//
// The seed corpus (testdata/fuzz/FuzzShardDecide) holds a valid batch
// per variant, an unsorted batch, one with an id outside the window,
// one with a zero count, one with unequal lengths, a run of batches
// that burns servers with MaxInt32 counts, and, per variant, a small
// count followed by a MaxInt32 one on the same server (whose sum an
// int32 total would wrap).
func FuzzShardDecide(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		variant := Variant(data[0] & 1)
		capacity := int32(1 + data[1]%12)
		lo := int32(data[2] % 64)
		hi := lo + 1 + int32(data[3]%64)
		sh, err := NewServerShard(variant, capacity, int(lo), int(hi))
		if err != nil {
			t.Fatal(err)
		}
		w := int(hi - lo)
		m := &shardModel{variant: variant, capacity: int64(capacity), lo: int64(lo), hi: int64(hi),
			load: make([]int64, w), received: make([]int64, w), burned: make([]bool, w)}
		for rest := data[4:]; len(rest) > 0; {
			var touched, counts []int32
			touched, counts, rest = fuzzBatch(rest, lo)
			load := slices.Clone(sh.load)
			received := slices.Clone(sh.receivedTotal)
			burned := slices.Clone(sh.burned)
			acc, nb, sat, err := sh.Decide(touched, counts, nil, nil)
			if valid := m.valid(touched, counts); (err == nil) != valid {
				t.Fatalf("Decide(%v, %v) error %v, reference valid %t", touched, counts, err, valid)
			}
			if err != nil {
				if !slices.Equal(load, sh.load) || !slices.Equal(received, sh.receivedTotal) || !slices.Equal(burned, sh.burned) {
					t.Fatalf("rejected batch (%v, %v) changed the shard", touched, counts)
				}
				continue
			}
			m.apply(touched, counts)
			if !slices.Equal(acc, m.accepted) || !slices.Equal(nb, m.newBurn) || sat != m.saturated {
				t.Fatalf("batch (%v, %v): Decide gave %v / %v / %d, reference %v / %v / %d",
					touched, counts, acc, nb, sat, m.accepted, m.newBurn, m.saturated)
			}
			for j := range sh.load {
				if int64(sh.load[j]) != m.load[j] || sh.burned[j] != m.burned[j] {
					t.Fatalf("batch (%v, %v): server %d load %d burned %t, reference %d %t",
						touched, counts, int(lo)+j, sh.load[j], sh.burned[j], m.load[j], m.burned[j])
				}
			}
		}
	})
}

// BenchmarkShardDecide runs ServerShard.Decide on one round-1-shaped
// batch of the wire-loopback shape (n = 2¹⁶, d = 2, c = 4, two shards):
// 28,000 ascending servers of a 32,768-server window with counts in
// [1, 3], on a freshly reset SAER shard, in ns per server.
func BenchmarkShardDecide(b *testing.B) {
	const window, k = 1 << 15, 28000
	src := rng.New(1)
	var touched, counts []int32
	for _, u := range src.Sample(window, k) {
		touched = append(touched, int32(u))
	}
	slices.Sort(touched)
	for range touched {
		counts = append(counts, int32(1+src.Intn(3)))
	}
	sh, err := NewServerShard(SAER, 8, 0, window)
	if err != nil {
		b.Fatal(err)
	}
	var acc, nb []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sh.Reset(nil)
		b.StartTimer()
		if acc, nb, _, err = sh.Decide(touched, counts, acc[:0], nb[:0]); err != nil || len(acc) != k {
			b.Fatalf("accepted %d of %d: %v", len(acc), k, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*k), "ns/server")
}
