// Command saer-client is the wire-mode load generator: it multiplexes
// all n simulated clients of a SAER/RAES execution over pooled
// connections to the shard servers named by -connect, drawing every
// destination from the same per-client RNG streams as the in-process
// engine. A loopback wire run therefore reproduces core.Config.Run's result
// bit-for-bit — pass -verify to have the client check exactly that every
// trial. Per-round scatter/gather latency and request throughput are
// measured via internal/metrics; -records streams the trials, per-shard
// tallies and latency summary as saer-records JSONL for saer-aggregate.
//
// -sessions S multiplexes S protocol sessions over the same pooled
// connections (one frame-level session id each, one independent
// ServerShard per session on the server side) and fans the trial list
// out over them: trial t runs on session t mod S, so a -trials T sweep
// runs up to S trials concurrently. -pipeline bounds the frames in
// flight per shard connection. -workers parallelizes each trial's
// client phase. All three are pure performance knobs: every trial's
// result is bit-for-bit the in-process result regardless.
//
// Examples:
//
//	saer-client -connect 127.0.0.1:7001,127.0.0.1:7002 -n 4096 -c 4
//	saer-client -connect $ADDRS -n 4096 -c 4 -trials 8 -sessions 4 -verify
//	saer-client -connect $ADDRS -n 4096 -c 4 -workers 4 -records run.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/bipartite"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/records"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func main() {
	var rf cli.RunFlags
	rf.Register(flag.CommandLine)
	var (
		connect     = flag.String("connect", "", "comma-separated shard server addresses (required)")
		graphKind   = flag.String("graph", "regular", "graph family: regular, simple-regular, trust, erdos, almost, proximity, complete")
		n           = flag.Int("n", 4096, "number of clients and servers")
		delta       = flag.Int("delta", 0, "client degree (0 = ceil(log2(n)^2))")
		expectedDeg = flag.Int("expected-degree", 0, "proximity graphs: expected degree used to derive the radius (0 = delta)")
		topoMode    = flag.String("topology", "csr", "graph storage: csr, implicit or implicit-csr")
		trials      = flag.Int("trials", 1, "number of trials (trial t runs with protocol seed seed+1+t)")
		sessions    = flag.Int("sessions", 1, "multiplexed protocol sessions over the pooled connections; trial t runs on session t mod sessions")
		pipeline    = flag.Int("pipeline", 0, "max frames in flight per shard connection (0 = default)")
		verify      = flag.Bool("verify", false, "also run each trial in-process and require bit-for-bit equality")
		track       = flag.Bool("track", false, "track per-round series (streamed to -records)")
		recordsPath = flag.String("records", "", "write a saer-records JSONL stream to this file")
		debugAddr   = flag.String("debug-addr", "", "serve Prometheus /metrics and net/http/pprof on this address (empty = off)")
	)
	flag.Parse()

	opts := clientOpts{
		connect: *connect, graphKind: *graphKind, n: *n, delta: *delta,
		expectedDeg: *expectedDeg, topoMode: *topoMode, trials: *trials,
		sessions: *sessions, pipeline: *pipeline, verify: *verify,
		track: *track, recordsPath: *recordsPath, debugAddr: *debugAddr,
	}
	if err := run(rf, opts); err != nil {
		fmt.Fprintln(os.Stderr, "saer-client:", err)
		os.Exit(1)
	}
}

type clientOpts struct {
	connect     string
	graphKind   string
	n           int
	delta       int
	expectedDeg int
	topoMode    string
	trials      int
	sessions    int
	pipeline    int
	verify      bool
	track       bool
	recordsPath string
	debugAddr   string
}

// trialOut is one trial's collected outcome; the session goroutines fill
// these and the main goroutine prints and records them in trial order.
type trialOut struct {
	seed     uint64
	res      *core.Result
	elapsed  time.Duration
	lat      []time.Duration
	reqs     int64
	verified bool
}

func run(rf cli.RunFlags, o clientOpts) error {
	if o.connect == "" {
		return fmt.Errorf("-connect is required (start saer-server and pass its addresses)")
	}
	var addrs []string
	for _, a := range strings.Split(o.connect, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if o.trials < 1 {
		return fmt.Errorf("-trials must be at least 1")
	}
	if o.sessions < 1 {
		return fmt.Errorf("-sessions must be at least 1")
	}
	if o.sessions > o.trials {
		o.sessions = o.trials // surplus sessions would idle
	}
	cfg, err := rf.Config()
	if err != nil {
		return err
	}
	topology, err := cli.ParseTopologyMode(o.topoMode)
	if err != nil {
		return err
	}
	g, err := cli.GraphSpec{Kind: o.graphKind, N: o.n, Delta: o.delta, ExpectedDegree: o.expectedDeg, Seed: rf.Seed}.BuildTopology(topology)
	if err != nil {
		return err
	}
	if csr, ok := g.(*bipartite.Graph); ok {
		fmt.Printf("graph: %s\n", csr)
		if cfg.C <= 0 {
			st := csr.Stats()
			cfg.C = core.MinCAlmostRegular(st.Eta, st.RegularityRatio, cfg.D)
			fmt.Printf("  using the paper's prescribed c = %.1f\n", cfg.C)
		}
	} else {
		fmt.Printf("graph: %v\n", g)
		if cfg.C <= 0 {
			return fmt.Errorf("-c 0 (prescribed threshold) needs server degree statistics; pass an explicit -c with -topology implicit")
		}
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg.TrackRounds = o.track
	cfg.TrackNeighborhoods = o.track
	// The per-shard records carry each window's max load, so load
	// tracking rides along whenever a record stream is requested.
	cfg.TrackLoads = cfg.TrackLoads || o.recordsPath != ""

	var rec *records.Recorder // nil (and nil-safe) without -records
	if o.recordsPath != "" {
		f, err := os.Create(o.recordsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		rec = records.NewRecorder(f)
		rec.SchemaHeader()
	}
	point := fmt.Sprintf("%s n=%d", strings.ToLower(strings.TrimSpace(o.graphKind)), o.n)

	// One registry spans the drivers and the wire bank: the round-loop
	// series (saer_*) and the transport series (saer_wire_*) of every
	// session fold into it, and -debug-addr serves it live. Telemetry is
	// always on when -records or -debug-addr asks for it; results are
	// bit-for-bit identical either way (the -verify path checks exactly
	// that against an un-instrumented in-process run).
	var reg *telemetry.Registry
	if o.debugAddr != "" || rec != nil {
		reg = telemetry.NewRegistry()
	}
	if o.debugAddr != "" {
		dbg, err := telemetry.ServeDebug(o.debugAddr, reg)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("debug listening on %s\n", dbg.Addr())
	}
	cfg.Telemetry = reg

	bank, err := wire.DialConfig(addrs, cfg.Variant, int32(cfg.Params().Capacity()), g.NumServers(),
		wire.BankConfig{Sessions: o.sessions, Pipeline: o.pipeline, Telemetry: reg})
	if err != nil {
		return err
	}
	defer bank.Close()
	fmt.Printf("wire bank: %d shards across %v, %d sessions\n\n", len(addrs), addrs, o.sessions)

	// Fan the trial list out over the sessions: session s walks trials
	// s, s+S, s+2S, … on its own Driver. Output is collected per trial
	// and printed in order after the join, so the concurrency never
	// interleaves the report.
	outs := make([]trialOut, o.trials)
	errs := make([]error, o.sessions)
	wallStart := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < o.sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ses := bank.Session(s)
			dr, err := core.NewDriver(g, cfg, ses)
			if err != nil {
				errs[s] = err
				return
			}
			for t := s; t < o.trials; t += o.sessions {
				seed := cfg.Seed + uint64(t)
				dr.Reseed(seed)
				start := time.Now()
				res, err := dr.Run()
				if err != nil {
					errs[s] = fmt.Errorf("trial %d: %w", t, err)
					return
				}
				elapsed := time.Since(start)
				lat, reqs := ses.TakeMetrics()
				out := trialOut{seed: seed, res: res, elapsed: elapsed, lat: lat, reqs: reqs}
				if o.verify {
					ref := cfg
					ref.Seed = seed
					// The reference run stays un-instrumented: the comparison
					// then doubles as a telemetry-on vs -off equivalence
					// check, and the reference rounds don't inflate the
					// client's own counters.
					ref.Telemetry = nil
					want, err := ref.Run(g)
					if err != nil {
						errs[s] = fmt.Errorf("trial %d in-process reference run: %w", t, err)
						return
					}
					if !reflect.DeepEqual(res, want) {
						errs[s] = fmt.Errorf("trial %d: wire result diverges from the in-process result", t)
						return
					}
					out.verified = true
				}
				outs[t] = out
			}
		}(s)
	}
	wg.Wait()
	wallElapsed := time.Since(wallStart)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	cores := runtime.GOMAXPROCS(0)
	var allLat []time.Duration
	var totalReqs int64
	var lastRes *core.Result
	for t, out := range outs {
		allLat = append(allLat, out.lat...)
		totalReqs += out.reqs
		lastRes = out.res

		lsum := metrics.SummarizeLatencies(out.lat)
		tput := metrics.Throughput{Requests: out.reqs, Elapsed: out.elapsed, Cores: cores}
		fmt.Printf("trial %d (seed %d, session %d): rounds=%d completed=%v max_load=%d burned=%d unassigned=%d\n",
			t, out.seed, t%o.sessions, out.res.Rounds, out.res.Completed, out.res.MaxLoad,
			out.res.BurnedServers, out.res.UnassignedBalls)
		fmt.Printf("  round latency: %v\n", lsum)
		fmt.Printf("  throughput:    %v\n", tput)
		if out.verified {
			fmt.Printf("  verify:        wire result == in-process result (bit-for-bit)\n")
		}
		rec.Trial("wire", point, t, out.seed, out.res)
		if len(out.res.PerRound) > 0 {
			rec.RoundSeries("wire", point, t, -1, out.res.PerRound)
		}
	}

	// Per-shard tallies: the service report of every shard, plus each
	// window's max load from the last trial.
	reports, err := bank.Reports()
	if err != nil {
		return err
	}
	windows := bank.Windows()
	fmt.Println()
	for i, rep := range reports {
		lo, hi := windows[i][0], windows[i][1]
		maxLoad := -1
		if lastRes != nil && len(lastRes.Loads) == g.NumServers() {
			maxLoad = 0
			for _, l := range lastRes.Loads[lo:hi] {
				if int(l) > maxLoad {
					maxLoad = int(l)
				}
			}
		}
		loadCol := ""
		if maxLoad >= 0 {
			loadCol = fmt.Sprintf(" max_load=%d", maxLoad)
		}
		fmt.Printf("shard %d [%d,%d): rounds=%d requests=%d accepted=%d decide=%v%s\n",
			i, lo, hi, rep.Rounds, rep.Requests, rep.Accepted,
			time.Duration(rep.DecideNanos).Round(time.Microsecond), loadCol)
		if rec != nil {
			shard, l, h := i, lo, hi
			rounds := int(rep.Rounds)
			work := int64(rep.Requests)
			r := records.Record{
				Type: records.TypeShard, Experiment: "wire", Point: point,
				Shard: &shard, ServerLo: &l, ServerHi: &h,
				Rounds: &rounds, Work: &work,
			}
			if maxLoad >= 0 {
				ml := maxLoad
				r.MaxLoad = &ml
			}
			rec.Emit(r)
		}
	}

	// The all-trials throughput uses wall time of the whole fan-out, so
	// concurrent sessions show up as gained throughput rather than
	// double-counted elapsed time.
	lsum := metrics.SummarizeLatencies(allLat)
	tput := metrics.Throughput{Requests: totalReqs, Elapsed: wallElapsed, Cores: cores}
	fmt.Printf("\nall trials: %v\n            %v (wall)\n", lsum, tput)
	rec.Note("wire", fmt.Sprintf("latency %v; throughput %v", lsum, tput))
	rec.Telemetry("wire", "client", reg.Snapshot())
	if rec != nil {
		if err := rec.Err(); err != nil {
			return err
		}
		fmt.Printf("\nwrote records to %s\n", o.recordsPath)
	}
	return nil
}
