package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// The golden CSV fixture pins the exact bytes the store serializes for
// small campaigns at three seeds, and for one of them with an outage
// at Penn. The measurement database is free to
// change its in-memory representation (PR 5 moved it to columnar
// tables with run-length-encoded DNS history), but the CSV files a
// campaign saves — the durable interchange format checkpoints, resume,
// and v6report all rely on — must never drift. Regenerate with
//
//	go test ./internal/core -run TestCampaignCSVGolden -update-golden
//
// only when an intentional format change is reviewed.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden CSV hash fixture")

const goldenCSVFile = "testdata/golden_csv.json"

func goldenConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.NASes = 300
	cfg.ListSize = 1200
	cfg.Extended = 300
	cfg.Rounds = 8
	cfg.V6DayRounds = 4
	cfg.Vantages = ScaledVantages(cfg.Rounds)
	return cfg
}

// goldenCampaigns names the campaigns the fixture pins: goldenConfig
// at three seeds, and seed 3 with Penn offline for rounds [3, 5).
// Penn monitors both the ranked list and the extended population, so
// in the outage campaign both restart their DNS runs at round 5 after
// a gap in their histories.
func goldenCampaigns() map[string]Config {
	out := make(map[string]Config)
	for _, seed := range []int64{3, 5, 9} {
		out[fmt.Sprintf("seed%d", seed)] = goldenConfig(seed)
	}
	gap := goldenConfig(3)
	gap.Outages = []VantageOutage{{Vantage: "Penn", From: 3, To: 5}}
	out["seed3-penn-outage-3-5"] = gap
	return out
}

// hashCampaignCSVs runs the campaign cfg describes, saves both
// databases, and returns file -> sha256 for every CSV written.
func hashCampaignCSVs(t *testing.T, cfg Config) map[string]string {
	t.Helper()
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.RunWorldV6DayContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.DB.Save(filepath.Join(dir, "main")); err != nil {
		t.Fatal(err)
	}
	if err := s.V6DayDB.Save(filepath.Join(dir, "v6day")); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, sub := range []string{"main", "v6day"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			out[sub+"/"+e.Name()] = hex.EncodeToString(sum[:])
		}
	}
	return out
}

// TestCampaignCSVGolden proves the delta-encoded DNS history and the
// columnar sample/site tables expand to CSVs byte-identical to the
// row-per-round, map-backed store the seed entries were generated
// under, across three seeds; the outage entry was generated by the
// monitor that queried every site every round, before a round carried
// unchanged DNS runs forward, and pins that carrying restarts the runs
// a gap ends exactly as querying did.
func TestCampaignCSVGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns at three seeds")
	}
	got := make(map[string]map[string]string)
	for name, cfg := range goldenCampaigns() {
		got[name] = hashCampaignCSVs(t, cfg)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCSVFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenCSVFile)
		return
	}
	data, err := os.ReadFile(goldenCSVFile)
	if err != nil {
		t.Fatalf("read golden fixture (regenerate with -update-golden): %v", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var seeds []string
	for s := range want {
		seeds = append(seeds, s)
	}
	sort.Strings(seeds)
	for _, seed := range seeds {
		for file, wantSum := range want[seed] {
			if gotSum := got[seed][file]; gotSum != wantSum {
				t.Errorf("%s %s: sha256 %s, want %s — saved CSV bytes drifted", seed, file, gotSum, wantSum)
			}
		}
		if len(got[seed]) != len(want[seed]) {
			t.Errorf("%s: %d CSV files, want %d", seed, len(got[seed]), len(want[seed]))
		}
	}
}
