package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// metricSpec declares one reported metric. The two tables below are the
// benchmark's contract: BENCHMARK.json at the repository root lists the
// same names and units (TestSpecsMatchBenchmarkJSON pins it), and a run
// refuses to print a metric that is not declared here.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees, printed by an
// untraced run (--trace 0).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"run_ms_p50", "ms", "lower"},
	{"run_ms_p90", "ms", "lower"},
	{"balls_per_s", "1/s", "higher"},
	{"rounds_mean", "rounds", "lower"},
	{"work_per_ball", "msg/ball", "lower"},
	{"max_load", "balls", "lower"},
	{"alloc_mb_per_run", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"cpu_s_per_run", "s", "lower"},
}

// perLayer are the single-layer metrics, printed by a traced run
// (--trace 1). A metric a workload does not exercise reads 0 there (the
// README's table says which workload feeds which metric).
var perLayer = []metricSpec{
	{"core.round1_ms", "ms", "lower"},
	{"core.tail_ms", "ms", "lower"},
	{"core.client_ms_per_run", "ms", "lower"},
	{"core.decide_ms_per_run", "ms", "lower"},
	{"core.decide_ns_per_touched", "ns", "lower"},
	{"core.touched_per_round", "count", "lower"},
	{"core.accept_ratio", "ratio", "higher"},
	{"rng.intn_ns", "ns", "lower"},
	{"gen.neighbor_at_ns", "ns", "lower"},
	{"gen.row_ns_per_edge", "ns", "lower"},
	{"engine.route_fold_ns_per_ball", "ns", "lower"},
	{"churn.mutate_ms_per_epoch", "ms", "lower"},
	{"churn.run_ms_per_epoch", "ms", "lower"},
	{"churn.pq_epoch_frac", "ratio", "higher"},
	{"churn.reinjected_per_epoch", "balls", "lower"},
	{"wire.rtt_us_p50", "us", "lower"},
	{"wire.rtt_us_p99", "us", "lower"},
	{"wire.server_decide_frac", "ratio", "higher"},
	{"wire.transport_us_per_round", "us", "lower"},
	{"wire.bytes_per_ball_computed", "B/ball", "lower"},
	{"go.gc_cycles_per_run", "count", "lower"},
	{"go.gc_pause_ms_per_run", "ms", "lower"},
	{"go.cpu_per_wall", "ratio", "higher"},
	{"trace.overhead_frac", "ratio", "lower"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateSpecs checks a metric table: well-formed names and units, no
// name used twice, and a direction for every metric.
func validateSpecs(specs []metricSpec) error {
	seen := make(map[string]bool, len(specs))
	for _, s := range specs {
		if !nameRE.MatchString(s.Name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+ (at most 64, starting alphanumeric)", s.Name)
		}
		if !unitRE.MatchString(s.Unit) {
			return fmt.Errorf("metric %s: unit %q is not [A-Za-z0-9_/%%.-]+ (at most 16)", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			return fmt.Errorf("metric %s: better must be lower or higher, got %q", s.Name, s.Better)
		}
		if seen[s.Name] {
			return fmt.Errorf("metric %s declared twice", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// metricValue is one metric as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildMetrics pairs measured values with their declared units. Every
// declared metric must have a finite value and nothing undeclared may
// appear.
func buildMetrics(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	if err := validateSpecs(specs); err != nil {
		return nil, err
	}
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", s.Name, v)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// summarize returns the median and 90th percentile of ds, through the
// repository's own quantile estimator.
func summarize(ds []time.Duration) metrics.LatencySummary {
	return metrics.SummarizeLatencies(append([]time.Duration(nil), ds...))
}

// median is summarize(ds).P50 (zero for no samples).
func median(ds []time.Duration) time.Duration { return summarize(ds).P50 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0 (a layer the workload does
// not exercise).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes returns the process's peak resident set size.
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes
}

// clockTick is the unit of the kernel's /proc/stat CPU counters.
const clockTick = 10 * time.Millisecond

// stealTime returns the CPU time the hypervisor has taken from this
// machine's virtual CPUs (the steal column of /proc/stat), or 0 where
// the kernel does not report it.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return parseSteal(line)
}

// parseSteal reads the steal field of the aggregate "cpu" line.
func parseSteal(line string) time.Duration {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var ticks int64
	if _, err := fmt.Sscan(f[8], &ticks); err != nil {
		return 0
	}
	return time.Duration(ticks) * clockTick
}

// meter measures one timed region: wall and CPU time, bytes allocated,
// garbage-collection cycles and pauses, and host CPU steal. Everything
// but the clocks is read just outside the region.
type meter struct {
	t0     time.Time
	cpu0   time.Duration
	steal0 time.Duration
	ms0    runtime.MemStats
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	m.steal0 = stealTime()
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
}

func (m *meter) stop(s *sample) {
	s.wall = time.Since(m.t0)
	s.cpu = cpuTime() - m.cpu0
	s.steal = stealTime() - m.steal0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.alloc = ms.TotalAlloc - m.ms0.TotalAlloc
	s.gcCycles = ms.NumGC - m.ms0.NumGC
	s.gcPause = time.Duration(ms.PauseTotalNs - m.ms0.PauseTotalNs)
}

// Host CPU steal is the dominant noise on shared virtual machines: the
// hypervisor takes a virtual CPU away in bursts, and a protocol phase
// waits for its slowest worker. An
// execution that lost more than stealSlack of the machine's CPU time
// during its wall time is therefore run again on the same inputs, up to
// maxAttempts executions, and the one that lost the least is kept.
const (
	maxAttempts = 3
	stealSlack  = 0.05
)

// stealFrac is the share of the machine's CPU time stolen during the
// sample's wall time.
func (s *sample) stealFrac() float64 {
	return ratio(float64(s.steal), float64(s.wall)*float64(runtime.NumCPU()))
}

// cleanest runs exec (one execution of a trial on fixed inputs) until an
// execution loses at most stealSlack to steal or maxAttempts have run,
// and returns the execution that lost the least with its attempt index.
func cleanest(exec func(attempt int) (sample, error)) (sample, int, error) {
	var best sample
	chosen := 0
	for a := 0; a < maxAttempts; a++ {
		s, err := exec(a)
		if err != nil {
			return s, a, err
		}
		if a == 0 || s.stealFrac() < best.stealFrac() {
			best, chosen = s, a
		}
		if best.stealFrac() <= stealSlack {
			break
		}
	}
	return best, chosen, nil
}

// envStamp records where and how a result was measured.
type envStamp struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Trace      int            `json:"trace"`
	Seconds    float64        `json:"seconds"`
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workers    int            `json:"workers"`
	GoVersion  string         `json:"go_version"`
	CPUModel   string         `json:"cpu_model"`
	Note       string         `json:"note"`
	Samples    map[string]int `json:"samples"`
}

func newEnvStamp(w *workload, seed uint64, trace int, seconds float64) envStamp {
	return envStamp{
		Workload:   w.name,
		Seed:       seed,
		Trace:      trace,
		Seconds:    seconds,
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    benchWorkers,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Note:       w.note,
		Samples:    map[string]int{},
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or the
// architecture when it cannot be read.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	return parseCPUModel(bufio.NewScanner(f))
}

func parseCPUModel(sc *bufio.Scanner) string {
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return runtime.GOARCH
}
