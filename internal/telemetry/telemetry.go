// Package telemetry is the live-introspection layer of the
// reproduction: a process-wide, allocation-free registry of counters,
// gauges and fixed-bucket histograms, plus lightweight phase spans.
//
// It sits between the two existing observability layers (see
// DESIGN.md § Observability):
//
//   - internal/trace exports a finished core.Result post hoc (CSV/JSON
//     for plotting tools);
//   - internal/records streams one JSON object per trial/round/row as
//     the run produces them;
//   - telemetry (this package) answers "what is the process doing right
//     now" — counters the hot layers bump in place, scraped live over
//     HTTP (/metrics) or folded into the record stream as a Snapshot.
//
// Design constraints, in order:
//
//  1. Observation must never change results. No instrument consumes
//     randomness or alters scheduling; the equivalence suites pin
//     bit-for-bit identical output with telemetry on or off.
//  2. The disabled path is free. Every instrument method is
//     nil-receiver-safe and a nil *Registry hands out nil instruments,
//     so un-instrumented runs pay one pointer test per call site and
//     StartSpan(nil) never reads the clock.
//  3. The enabled path is allocation-free and shard-friendly. Counters
//     spread across cache-line-padded atomic cells indexed by a caller
//     hint (the worker index), so parallel phases don't serialize on a
//     shared line.
//
// Instrument names may embed Prometheus label syntax directly, e.g.
// `saer_wire_rtt_seconds{shard="3"}`; the renderer groups metrics into
// families by the name before the '{' and emits one # TYPE line per
// family. Names must be stable across processes so Snapshot folding in
// saer-aggregate lines up.
package telemetry

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// cellStride spaces counter cells one 64-byte cache line apart
// (8 × int64) so concurrent workers hitting adjacent cells don't
// false-share.
const cellStride = 8

// maxCounterShards caps the per-counter cell count; beyond this the
// memory cost outweighs the contention win.
const maxCounterShards = 64

// A Counter is a monotonically increasing sum spread over
// cache-line-padded atomic cells. All methods are safe on a nil
// receiver (they no-op / return zero), which is the disabled path.
type Counter struct {
	cells []int64
	mask  int
}

// Add adds delta to the counter. hint selects the cell (typically the
// worker index); any int works — it is masked to the cell count.
func (c *Counter) Add(hint int, delta int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.cells[(hint&c.mask)*cellStride], delta)
}

// Inc adds one.
func (c *Counter) Inc(hint int) { c.Add(hint, 1) }

// Value returns the sum over all cells.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := 0; i < len(c.cells); i += cellStride {
		total += atomic.LoadInt64(&c.cells[i])
	}
	return total
}

// A Gauge is a single settable value (e.g. open sessions). Safe on a
// nil receiver.
type Gauge struct {
	v int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	atomic.StoreInt64(&g.v, v)
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	atomic.AddInt64(&g.v, delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return atomic.LoadInt64(&g.v)
}

// defaultBounds are the fixed histogram bucket upper bounds in
// nanoseconds: 1 µs × powers of 4 up to ~4.4 s, plus the implicit +Inf
// bucket. Twelve buckets cover everything from a sub-millisecond
// in-process phase to a multi-second wide-area round trip at a
// resolution good enough for p50/p99 reads off /metrics.
var defaultBounds = func() []int64 {
	b := make([]int64, 12)
	v := int64(1000)
	for i := range b {
		b[i] = v
		v *= 4
	}
	return b
}()

// A Histogram counts duration observations into fixed exponential
// buckets. Observations are atomic; the count/sum/bucket triple is not
// read as one consistent snapshot (scrapes may see a bucket increment
// before the matching sum update), which Prometheus tolerates by
// design. Safe on a nil receiver.
type Histogram struct {
	bounds []int64 // upper bounds, ns, ascending
	counts []int64 // len(bounds)+1; last is the +Inf bucket
	count  int64
	sum    int64 // ns
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	v := int64(d)
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&h.count, 1)
	atomic.AddInt64(&h.sum, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return atomic.LoadInt64(&h.count)
}

// A Span times one phase into a histogram. The zero Span (and any span
// started against a nil histogram) is inert: StartSpan(nil) does not
// read the clock and End on it does nothing, so the disabled path costs
// exactly one nil test.
type Span struct {
	h  *Histogram
	t0 time.Time
}

// StartSpan starts timing into h. A nil h yields an inert span.
func StartSpan(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, t0: time.Now()}
}

// End records the elapsed time since StartSpan.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Observe(time.Since(s.t0))
}

// A Registry owns a process's instruments. Instrument lookups are
// get-or-create and keyed by the full name (labels included), so two
// components asking for the same name share one instrument — that is
// how per-session wire drivers fold into one set of phase histograms.
//
// A nil *Registry is the disabled state: its lookup methods return nil
// instruments whose methods all no-op.
type Registry struct {
	mu       sync.Mutex
	shards   int
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry whose counters are sharded for
// the current GOMAXPROCS.
func NewRegistry() *Registry {
	shards := 1
	for shards < runtime.GOMAXPROCS(0) && shards < maxCounterShards {
		shards <<= 1
	}
	return &Registry{
		shards:   shards,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{cells: make([]int64, r.shards*cellStride), mask: r.shards - 1}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram (default duration buckets),
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{bounds: defaultBounds, counts: make([]int64, len(defaultBounds)+1)}
		r.hists[name] = h
	}
	return h
}

// sortedNames returns the keys of each instrument map in sorted order
// so every rendering and snapshot is deterministic.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
