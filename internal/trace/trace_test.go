package trace

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rng"
)

func trackedResult(t *testing.T) *core.Result {
	t.Helper()
	g, err := gen.Regular(256, 20, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Config{Variant: core.SAER, D: 2, C: 4, Seed: 3, TrackNeighborhoods: true, TrackLoads: true}.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWriteRoundsCSV(t *testing.T) {
	res := trackedResult(t)
	var buf bytes.Buffer
	if err := WriteRoundsCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != res.Rounds+1 {
		t.Fatalf("CSV has %d rows, want %d (header + rounds)", len(records), res.Rounds+1)
	}
	if records[0][0] != "round" || len(records[0]) != 10 {
		t.Errorf("unexpected header: %v", records[0])
	}
	if records[1][0] != "1" {
		t.Errorf("first data row should be round 1, got %v", records[1])
	}
}

func TestWriteLoadsCSV(t *testing.T) {
	res := trackedResult(t)
	var buf bytes.Buffer
	if err := WriteLoadsCSV(&buf, res.Loads); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(res.Loads)+1 {
		t.Fatalf("CSV has %d rows, want %d", len(records), len(res.Loads)+1)
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	res := trackedResult(t)
	var buf bytes.Buffer
	if err := WriteResultJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Variant != res.Variant || back.Rounds != res.Rounds || back.Work != res.Work ||
		back.MaxLoad != res.MaxLoad || back.Completed != res.Completed {
		t.Errorf("round trip changed the result: %v vs %v", back, res)
	}
	if len(back.PerRound) != len(res.PerRound) {
		t.Errorf("per-round series length %d, want %d", len(back.PerRound), len(res.PerRound))
	}
	if len(back.Loads) != len(res.Loads) {
		t.Errorf("loads length %d, want %d", len(back.Loads), len(res.Loads))
	}
}

func TestReadResultJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadResultJSON(strings.NewReader("{oops")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestRAESRoundTripKeepsVariant(t *testing.T) {
	g, err := gen.Regular(128, 16, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Config{Variant: core.RAES, D: 2, C: 4, Seed: 1}.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResultJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadResultJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Variant != core.RAES {
		t.Errorf("variant %v, want RAES", back.Variant)
	}
}
