// Command perfbench is the repository's benchmark: it runs one named
// workload of the SAER/RAES implementation for a fixed time, checks every
// run's output, and prints its metrics. Build and run it from the
// repository root through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload pq-dense --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload untraced and then traced, and prints the per-layer
// metrics. The last stdout line is one JSON object with the keys
// correct, attempted, failed and metrics. A failed check exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime/debug"
	"time"

	"repro/internal/rng"
)

// benchWorkers is the goroutine count of every protocol phase; the
// benchmark is sized for a 2-core machine.
const benchWorkers = 2

// setupRepeats is how many times a run builds its workload; setup_s is
// the median.
const setupRepeats = 5

// layerTrials is how many traced trials also take the per-layer samples
// (the round-1-only run and the Driver split).
const layerTrials = 4

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// note is stamped on every result of the workload.
	note string
	// prefix is the number of leading trials the deterministic metrics
	// (rounds_mean, work_per_ball, max_load) are taken over, so they are
	// identical across runs at the same seed; a run always completes at
	// least this many trials.
	prefix int
	// setup builds the workload from the seed and runs one untimed
	// warm-up trial. With a non-nil ld the instance is traced: it carries
	// the instrumentation and records the per-layer samples into ld.
	setup func(seed uint64, ld *layerData) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// trial runs trial i and checks its output outside the timed
	// region; a check failure is returned as an error.
	trial(i int) (sample, error)
	// layers takes the per-layer samples after traced trial i (i <
	// layerTrials); trial 0 also runs the layer replays.
	layers(i int) error
	close() error
}

// sample is one trial.
type sample struct {
	wall     time.Duration // the timed region
	cpu      time.Duration
	steal    time.Duration // host CPU steal during the region
	alloc    uint64
	gcCycles uint32
	gcPause  time.Duration

	rounds  int
	work    int64
	balls   int64 // balls to place
	placed  int64 // balls placed
	maxLoad int

	// sent and accepted sum the per-round series (traced runs only).
	sent, accepted int64
	// outcome is the trial's result with the traced-only fields
	// cleared: traced and untraced trials at the same index must agree.
	outcome any
}

// replace turns an epoch sample, whose timed region contains every
// execution of its protocol run (summed in spent), into the sample of an
// epoch that ran only the kept execution.
func (s *sample) replace(spent, kept sample) {
	s.wall += kept.wall - spent.wall
	s.cpu += kept.cpu - spent.cpu
	s.steal += kept.steal - spent.steal
	s.alloc = s.alloc - spent.alloc + kept.alloc
	s.gcCycles = s.gcCycles - spent.gcCycles + kept.gcCycles
	s.gcPause += kept.gcPause - spent.gcPause
}

var workloads = []*workload{
	{name: "pq-dense", note: "in-process", prefix: 32, setup: setupPQDense},
	{name: "churn-rows", note: "in-process", prefix: 48, setup: setupChurnRows},
	{name: "wire-loopback", note: "loopback: wire traffic crosses 127.0.0.1, not a real link", prefix: 256, setup: setupWireLoopback},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want pq-dense, churn-rows or wire-loopback)", name)
}

// derive returns the seed of one input stream of a run: the same run
// seed always yields the same inputs.
func derive(seed, stream uint64) uint64 {
	sm := seed ^ stream*0x9e3779b97f4a7c15
	return rng.SplitMix64(&sm)
}

// Input streams derived from the run seed.
const (
	streamScheduler = 1 + iota
	streamEvents
	streamWarmup
	streamTrials = 1000
)

// Each workload's topology (and the churn topology's rewiring streams)
// is one fixed instance, the same at every run seed: the seed drives the
// protocol's random choices and the churn events, so runs at different
// seeds measure the same graph and their spread is the protocol's and
// the machine's, not the instance's.
const (
	topologySeed      = 0x5eed0001
	churnTopologySeed = 0x5eed0002
)

// trialSeed is the protocol seed of trial i.
func trialSeed(seed uint64, i int) uint64 { return derive(seed, streamTrials+uint64(i)) }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pq-dense, churn-rows or wire-loopback")
	seed := fs.Uint64("seed", 1, "run seed; every input is derived from it")
	seconds := fs.Float64("seconds", 10, "measurement time of the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	env := newEnvStamp(w, *seed, *trace, *seconds)
	var res *result
	if *trace == 0 {
		res, err = measureEndToEnd(w, *seed, budget, &env, stderr)
	} else {
		res, err = measureLayers(w, *seed, budget, &env, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := printResult(stdout, env, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult writes the environment stamp, one line per metric, and the
// JSON result line last.
func printResult(out io.Writer, env envStamp, res *result) error {
	stamp, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# env %s\n", stamp)
	specs := endToEnd
	if env.Trace == 1 {
		specs = perLayer
	}
	for _, s := range specs {
		fmt.Fprintf(out, "%-32s %14.6g %s\n", s.Name, res.Metrics[s.Name].Value, s.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// runTrials runs trials until the budget is spent and at least minTrials
// have run, stopping early at maxTrials (0 = no cap). after, when set,
// runs after each successful trial and may edit its sample. Failed
// trials are counted and left out of the samples.
func runTrials(inst instance, budget time.Duration, minTrials, maxTrials int, after func(i int, s *sample) error, log io.Writer) (samples []sample, attempted, failed int) {
	start := time.Now()
	for i := 0; i < minTrials || time.Since(start) < budget; i++ {
		if maxTrials > 0 && i >= maxTrials {
			break
		}
		attempted++
		s, err := inst.trial(i)
		if err == nil && after != nil {
			err = after(i, &s)
		}
		if err != nil {
			failed++
			fmt.Fprintf(log, "perfbench: trial %d: %v\n", i, err)
			continue
		}
		samples = append(samples, s)
	}
	return samples, attempted, failed
}

// setupTimed builds the workload setupRepeats times, each build taken
// through cleanest, keeping the last instance, and returns the median
// build time.
func setupTimed(w *workload, seed uint64) (instance, time.Duration, error) {
	var inst instance
	var times []time.Duration
	for k := 0; k < setupRepeats; k++ {
		s, _, err := cleanest(func(int) (sample, error) {
			if inst != nil {
				if err := inst.close(); err != nil {
					return sample{}, err
				}
				inst = nil
				debug.FreeOSMemory()
			}
			var s sample
			var m meter
			m.start()
			var err error
			inst, err = w.setup(seed, nil)
			m.stop(&s)
			return s, err
		})
		if err != nil {
			return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
		}
		times = append(times, s.wall)
	}
	return inst, median(times), nil
}

func measureEndToEnd(w *workload, seed uint64, budget time.Duration, env *envStamp, log io.Writer) (*result, error) {
	inst, setup, err := setupTimed(w, seed)
	if err != nil {
		return nil, err
	}
	// Outcomes are only compared in traced runs; keeping them (a churn
	// epoch's outcome carries its load vector) would count toward
	// peak_rss_mb.
	dropOutcome := func(_ int, s *sample) error {
		s.outcome = nil
		return nil
	}
	samples, attempted, failed := runTrials(inst, budget, w.prefix, 0, dropOutcome, log)
	peak := peakRSSBytes()
	if err := inst.close(); err != nil {
		return nil, err
	}
	if len(samples) < w.prefix {
		return nil, fmt.Errorf("only %d of the first %d trials succeeded", len(samples), w.prefix)
	}
	env.Samples["setups"] = setupRepeats
	env.Samples["trials"] = len(samples)
	env.Samples["prefix_trials"] = w.prefix

	walls := make([]time.Duration, len(samples))
	allocs := make([]time.Duration, len(samples)) // bytes, through the same median
	var wall, cpu time.Duration
	var placed int64
	for i, s := range samples {
		walls[i] = s.wall
		allocs[i] = time.Duration(s.alloc)
		wall += s.wall
		cpu += s.cpu
		placed += s.placed
	}
	lat := summarize(walls)
	var rounds, work, balls int64
	maxLoad := 0
	for _, s := range samples[:w.prefix] {
		rounds += int64(s.rounds)
		work += s.work
		balls += s.balls
		maxLoad = max(maxLoad, s.maxLoad)
	}
	n := float64(len(samples))
	values := map[string]float64{
		"setup_s":          setup.Seconds(),
		"run_ms_p50":       ms(lat.P50),
		"run_ms_p90":       ms(lat.P90),
		"balls_per_s":      float64(placed) / wall.Seconds(),
		"rounds_mean":      float64(rounds) / float64(w.prefix),
		"work_per_ball":    float64(work) / float64(balls),
		"max_load":         float64(maxLoad),
		"alloc_mb_per_run": float64(median(allocs)) / 1e6,
		"peak_rss_mb":      float64(peak) / 1e6,
		"cpu_s_per_run":    cpu.Seconds() / n,
	}
	m, err := buildMetrics(endToEnd, values)
	if err != nil {
		return nil, err
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// measureLayers runs the workload untraced for half the budget, then
// again from a fresh set-up with the instrumentation for the other half
// (at the same trial seeds, so every traced outcome is checked against
// the untraced one), taking the per-layer samples along the way.
func measureLayers(w *workload, seed uint64, budget time.Duration, env *envStamp, log io.Writer) (*result, error) {
	plain, err := w.setup(seed, nil)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	untraced, attempted, failed := runTrials(plain, budget/2, layerTrials, 0, nil, log)
	if err := plain.close(); err != nil {
		return nil, err
	}
	debug.FreeOSMemory()
	if failed > 0 {
		return &result{Attempted: attempted, Failed: failed, Metrics: zeroMetrics(perLayer)}, nil
	}

	ld := &layerData{}
	traced, err := w.setup(seed, ld)
	if err != nil {
		return nil, fmt.Errorf("%s traced setup: %w", w.name, err)
	}
	after := func(i int, s *sample) error {
		if want := untraced[i].outcome; !reflect.DeepEqual(s.outcome, want) {
			return errors.New("traced outcome differs from the untraced one at the same seed")
		}
		ld.tracedWall = append(ld.tracedWall, s.wall)
		ld.sent += s.sent
		ld.accepted += s.accepted
		if i < layerTrials {
			return traced.layers(i)
		}
		return nil
	}
	tracedSamples, tAttempted, tFailed := runTrials(traced, budget/2, layerTrials, len(untraced), after, log)
	if err := traced.close(); err != nil {
		return nil, err
	}
	attempted += tAttempted
	failed += tFailed

	env.Samples["untraced_trials"] = len(untraced)
	env.Samples["traced_trials"] = len(tracedSamples)
	env.Samples["round1_samples"] = len(ld.round1)
	env.Samples["split_runs"] = ld.splitRuns
	env.Samples["wire_rtts"] = len(ld.rtts)
	values := ld.values()
	untracedWalls := make([]time.Duration, len(tracedSamples))
	var wall, cpu, gcPause time.Duration
	var gcCycles uint32
	for i, s := range untraced {
		if i < len(untracedWalls) {
			untracedWalls[i] = s.wall
		}
		wall += s.wall
		cpu += s.cpu
		gcCycles += s.gcCycles
		gcPause += s.gcPause
	}
	n := float64(len(untraced))
	values["go.gc_cycles_per_run"] = float64(gcCycles) / n
	values["go.gc_pause_ms_per_run"] = ms(gcPause) / n
	values["go.cpu_per_wall"] = cpu.Seconds() / wall.Seconds()
	values["trace.overhead_frac"] = ratio(ms(median(ld.tracedWall)), ms(median(untracedWalls))) - 1
	m, err := buildMetrics(perLayer, values)
	if err != nil {
		return nil, err
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// zeroMetrics is the metric set of a run that failed before measuring.
func zeroMetrics(specs []metricSpec) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.Name] = metricValue{Unit: s.Unit}
	}
	return out
}
