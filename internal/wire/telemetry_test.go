package wire

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestWireTelemetryEquivalence extends the loopback equivalence contract
// to the telemetry layer: a fully instrumented wire run — client
// registry on the Driver and the Bank, a second registry on every shard
// server — must reproduce the un-instrumented in-process result bit for
// bit, and the instruments must have counted the run (RTT samples per
// round call, transport bytes both ways, server rounds per shard).
func TestWireTelemetryEquivalence(t *testing.T) {
	n := 512
	g := testGraph(t, n, 24, 77)
	cfg := core.Config{Variant: core.SAER, D: 2, C: 2, Seed: 0xFEED,
		TrackRounds: true, TrackLoads: true, TrackAssignments: true}
	ref, err := cfg.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 3} {
		for _, workers := range []int{1, 4} {
			clientReg := telemetry.NewRegistry()
			serverReg := telemetry.NewRegistry()
			addrs := make([]string, shards)
			for i := range addrs {
				addrs[i] = "127.0.0.1:0"
			}
			ss, err := StartSetTelemetry(addrs, serverReg)
			if err != nil {
				t.Fatal(err)
			}
			wcfg := cfg
			wcfg.Workers = workers
			wcfg.Telemetry = clientReg
			bank, err := DialConfig(ss.Addrs(), wcfg.Variant, int32(wcfg.Params().Capacity()), n,
				BankConfig{Telemetry: clientReg})
			if err != nil {
				ss.Close()
				t.Fatal(err)
			}
			dr, err := core.NewDriver(g, wcfg, bank)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dr.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("shards=%d workers=%d: instrumented wire run diverges from un-instrumented in-process run",
					shards, workers)
			}

			csnap := clientReg.Snapshot()
			if got := csnap.Counters["saer_rounds_total"]; got != int64(ref.Rounds) {
				t.Errorf("shards=%d workers=%d: client saer_rounds_total=%d, want %d", shards, workers, got, ref.Rounds)
			}
			var rtt, tx, rx int64
			for name, h := range csnap.Histograms {
				if strings.HasPrefix(name, "saer_wire_rtt_seconds") {
					rtt += h.Count
				}
			}
			for name, v := range csnap.Counters {
				if strings.HasPrefix(name, "saer_wire_tx_bytes_total") {
					tx += v
				}
				if strings.HasPrefix(name, "saer_wire_rx_bytes_total") {
					rx += v
				}
			}
			if rtt == 0 || tx == 0 || rx == 0 {
				t.Errorf("shards=%d workers=%d: empty wire instruments (rtt=%d tx=%d rx=%d)",
					shards, workers, rtt, tx, rx)
			}

			ssnap := serverReg.Snapshot()
			var srvRounds int64
			for name, v := range ssnap.Counters {
				if strings.HasPrefix(name, "saer_server_rounds_total") {
					srvRounds += v
				}
			}
			// Every round touches at most `shards` shard servers; at least
			// one per round, exactly ref.Rounds when there is one shard.
			if shards == 1 && srvRounds != int64(ref.Rounds) {
				t.Errorf("workers=%d: server rounds=%d, want %d", workers, srvRounds, ref.Rounds)
			}
			if srvRounds < int64(ref.Rounds) || srvRounds > int64(ref.Rounds*shards) {
				t.Errorf("shards=%d workers=%d: server rounds=%d outside [%d,%d]",
					shards, workers, srvRounds, ref.Rounds, ref.Rounds*shards)
			}
			// All sessions hung up yet? Close first, then the gauges must
			// read zero (conn teardown decrements them).
			bank.Close()
			if err := ss.Close(); err != nil {
				t.Fatal(err)
			}
			end := serverReg.Snapshot()
			for name, v := range end.Gauges {
				if strings.HasPrefix(name, "saer_server_open_") && v != 0 {
					t.Errorf("shards=%d workers=%d: gauge %s=%d after close, want 0", shards, workers, name, v)
				}
			}
		}
	}
}

// TestWireTelemetrySpills pins the spill counter: a frame limit small
// enough to fragment every round batch must both preserve the result
// and register continuation fragments on the client and the server.
func TestWireTelemetrySpills(t *testing.T) {
	n := 256
	g := testGraph(t, n, 16, 9)
	cfg := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: 0xBEEF, TrackLoads: true}
	ref, err := cfg.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 64
	clientReg := telemetry.NewRegistry()
	serverReg := telemetry.NewRegistry()
	ss, err := StartSetTelemetry([]string{"127.0.0.1:0", "127.0.0.1:0"}, serverReg)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	for _, srv := range ss.Servers() {
		srv.SetFrameLimit(limit)
	}
	wcfg := cfg
	wcfg.Telemetry = clientReg
	bank, err := DialConfig(ss.Addrs(), cfg.Variant, int32(cfg.Params().Capacity()), n,
		BankConfig{FrameLimit: limit, Telemetry: clientReg})
	if err != nil {
		t.Fatal(err)
	}
	defer bank.Close()
	dr, err := core.NewDriver(g, wcfg, bank)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Error("spilling instrumented run diverges from in-process reference")
	}
	count := func(snap *telemetry.Snapshot, prefix string) int64 {
		var total int64
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, prefix) {
				total += v
			}
		}
		return total
	}
	if got := count(clientReg.Snapshot(), "saer_wire_spilled_frames_total"); got == 0 {
		t.Error("no client spills counted under a 64-byte frame limit")
	}
	if got := count(serverReg.Snapshot(), "saer_server_spilled_frames_total"); got == 0 {
		t.Error("no server spills counted under a 64-byte frame limit")
	}
}
