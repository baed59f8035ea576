package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsInert(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("y")
	h := reg.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments, got %v %v %v", c, g, h)
	}
	// All of these must be no-ops, not panics.
	c.Add(3, 5)
	c.Inc(0)
	g.Set(7)
	g.Add(-1)
	h.Observe(time.Millisecond)
	sp := StartSpan(h)
	sp.End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if reg.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatalf("nil registry render: %v", err)
	}
}

func TestCounterShardedSum(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc(w)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value() = %d, want %d", got, workers*per)
	}
	// Same name returns the same instrument.
	if reg.Counter("test_total") != c {
		t.Fatal("Counter lookup must be get-or-create")
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("open")
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	h.Observe(500 * time.Nanosecond) // below first bound (1µs) → bucket 0
	h.Observe(time.Microsecond)      // equal to first bound → bucket 0
	h.Observe(2 * time.Microsecond)  // → bucket 1 (4µs)
	h.Observe(time.Hour)             // beyond all bounds → +Inf bucket
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	snap := reg.Snapshot().Histograms["lat"]
	want := 500*time.Nanosecond + time.Microsecond + 2*time.Microsecond + time.Hour
	if got := time.Duration(snap.SumNanos); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if snap.Counts[0] != 2 || snap.Counts[1] != 1 || snap.Counts[len(snap.Counts)-1] != 1 {
		t.Fatalf("bucket counts = %v", snap.Counts)
	}
	if len(snap.Counts) != len(snap.BoundsNanos)+1 {
		t.Fatalf("len(Counts)=%d, len(Bounds)=%d", len(snap.Counts), len(snap.BoundsNanos))
	}
}

func TestSpan(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("phase")
	sp := StartSpan(h)
	sp.End()
	if h.Count() != 1 {
		t.Fatalf("span did not observe; count = %d", h.Count())
	}
	// Inert span: no clock read, no observation.
	StartSpan(nil).End()
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(`saer_rtt_bytes_total{shard="1"}`).Add(0, 10)
	reg.Counter(`saer_rtt_bytes_total{shard="0"}`).Add(0, 5)
	reg.Counter("saer_rounds_total").Add(0, 2)
	reg.Gauge("saer_open_sessions").Set(3)
	reg.Histogram(`saer_phase_seconds{phase="fold"}`).Observe(2 * time.Microsecond)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE saer_rtt_bytes_total counter\n",
		`saer_rtt_bytes_total{shard="0"} 5` + "\n",
		`saer_rtt_bytes_total{shard="1"} 10` + "\n",
		"# TYPE saer_rounds_total counter\nsaer_rounds_total 2\n",
		"# TYPE saer_open_sessions gauge\nsaer_open_sessions 3\n",
		"# TYPE saer_phase_seconds histogram\n",
		`saer_phase_seconds_bucket{phase="fold",le="1e-06"} 0` + "\n",
		`saer_phase_seconds_bucket{phase="fold",le="4e-06"} 1` + "\n",
		`saer_phase_seconds_bucket{phase="fold",le="+Inf"} 1` + "\n",
		`saer_phase_seconds_sum{phase="fold"} 2e-06` + "\n",
		`saer_phase_seconds_count{phase="fold"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q\n---\n%s", want, out)
		}
	}
	// One # TYPE line per family even with two labeled series.
	if n := strings.Count(out, "# TYPE saer_rtt_bytes_total"); n != 1 {
		t.Errorf("family type line emitted %d times, want 1", n)
	}
	// Deterministic: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := reg.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("rendering is not deterministic")
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewRegistry()
	a.Counter("c").Add(0, 1)
	a.Gauge("g").Set(2)
	a.Histogram("h").Observe(time.Millisecond)
	b := NewRegistry()
	b.Counter("c").Add(0, 10)
	b.Counter("only_b").Add(0, 7)
	b.Gauge("g").Set(3)
	b.Histogram("h").Observe(time.Second)

	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Counters["c"] != 11 || s.Counters["only_b"] != 7 {
		t.Fatalf("merged counters = %v", s.Counters)
	}
	if s.Gauges["g"] != 5 {
		t.Fatalf("merged gauge = %d, want 5", s.Gauges["g"])
	}
	h := s.Histograms["h"]
	if h.Count != 2 || h.SumNanos != int64(time.Millisecond+time.Second) {
		t.Fatalf("merged histogram = %+v", h)
	}
	var total int64
	for _, n := range h.Counts {
		total += n
	}
	if total != 2 {
		t.Fatalf("merged bucket total = %d, want 2", total)
	}
	// Merging nil in either direction is a no-op, not a panic.
	s.Merge(nil)
	(*Snapshot)(nil).Merge(s)
}

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("saer_rounds_total").Add(0, 42)
	d, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	resp, err := http.Get("http://" + d.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "saer_rounds_total 42") {
		t.Fatalf("/metrics body missing counter:\n%s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content-type = %q", ct)
	}

	// pprof is mounted (cmdline is the cheapest endpoint to probe).
	resp, err = http.Get("http://" + d.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d", resp.StatusCode)
	}
}

func TestReporter(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("trials")
	var buf bytes.Buffer
	r := NewReporter(&buf, "E1 n=1024", c, 10, 10*time.Millisecond)
	for i := 0; i < 10; i++ {
		c.Inc(0)
	}
	time.Sleep(30 * time.Millisecond)
	r.Stop()
	out := buf.String()
	if !strings.Contains(out, "E1 n=1024: 10/10 trials") {
		t.Fatalf("reporter output missing final line:\n%s", out)
	}
	if !strings.Contains(out, "ETA 0s") {
		t.Fatalf("finished point should report ETA 0s:\n%s", out)
	}
	// Inert reporters don't panic.
	NewReporter(nil, "x", c, 1, time.Second).Stop()
	NewReporter(&buf, "x", nil, 1, time.Second).Stop()
}

func TestReporterUnknownTotal(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("trials")
	c.Add(0, 3)
	var buf bytes.Buffer
	r := NewReporter(&buf, "soak", c, 0, time.Hour)
	c.Add(0, 2)
	r.Stop()
	if want := "soak: 2 trials"; !strings.Contains(buf.String(), want) {
		t.Fatalf("output %q missing %q (reporter must baseline at start)", buf.String(), want)
	}
}

func TestSplitName(t *testing.T) {
	for _, tc := range []struct{ in, fam, labels string }{
		{"plain", "plain", ""},
		{`x{a="1"}`, "x", `a="1"`},
		{`x{a="1",b="2"}`, "x", `a="1",b="2"`},
	} {
		fam, labels := splitName(tc.in)
		if fam != tc.fam || labels != tc.labels {
			t.Errorf("splitName(%q) = (%q, %q), want (%q, %q)", tc.in, fam, labels, tc.fam, tc.labels)
		}
	}
	if got := fmt.Sprintf("%s", joinLabels("", `le="1"`)); got != `{le="1"}` {
		t.Errorf("joinLabels empty = %q", got)
	}
}
