package core

import (
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The vantage-outage schedule (Config.Outages) models the paper's
// "data collection was occasionally interrupted" as campaign state:
// an offline vantage runs no monitoring for its window, the event
// stream carries a degraded placeholder in its roster slot, and the
// whole arrangement is deterministic — same schedule, same bytes.

func TestOutageValidation(t *testing.T) {
	base := runnerCfg(1)
	cases := []struct {
		name    string
		outages []VantageOutage
		wantErr bool
	}{
		{"valid", []VantageOutage{{Vantage: "Penn", From: 2, To: 4}}, false},
		{"valid-adjacent", []VantageOutage{{Vantage: "Penn", From: 1, To: 3}, {Vantage: "Penn", From: 3, To: 5}}, false},
		{"valid-two-vantages-overlapping-rounds", []VantageOutage{{Vantage: "Penn", From: 2, To: 4}, {Vantage: "LU", From: 2, To: 4}}, false},
		{"unknown-vantage", []VantageOutage{{Vantage: "Mars", From: 1, To: 2}}, true},
		{"negative-from", []VantageOutage{{Vantage: "Penn", From: -1, To: 2}}, true},
		{"empty-window", []VantageOutage{{Vantage: "Penn", From: 3, To: 3}}, true},
		{"inverted-window", []VantageOutage{{Vantage: "Penn", From: 4, To: 2}}, true},
		{"past-end", []VantageOutage{{Vantage: "Penn", From: 5, To: 99}}, true},
		{"overlap-same-vantage", []VantageOutage{{Vantage: "Penn", From: 1, To: 4}, {Vantage: "Penn", From: 3, To: 5}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Outages = tc.outages
			err := cfg.Validate()
			if tc.wantErr && err == nil {
				t.Fatalf("Validate accepted %+v", tc.outages)
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("Validate rejected %+v: %v", tc.outages, err)
			}
		})
	}
}

// TestOutageFingerprint pins the compatibility contract: an empty
// schedule leaves the fingerprint untouched (existing checkpoints stay
// resumable), a non-empty one changes it (mixing a degraded campaign's
// checkpoint with a full config would corrupt both).
func TestOutageFingerprint(t *testing.T) {
	cfg := runnerCfg(1)
	plain := cfg.Fingerprint()
	cfg.Outages = []VantageOutage{}
	if got := cfg.Fingerprint(); got != plain {
		t.Fatalf("empty outage slice changed fingerprint: %s vs %s", got, plain)
	}
	cfg.Outages = []VantageOutage{{Vantage: "Penn", From: 2, To: 4}}
	withOut := cfg.Fingerprint()
	if withOut == plain {
		t.Fatal("outage schedule did not change fingerprint")
	}
	cfg.Outages = []VantageOutage{{Vantage: "Penn", From: 2, To: 5}}
	if got := cfg.Fingerprint(); got == withOut {
		t.Fatal("different outage windows share a fingerprint")
	}
}

// TestOutageCampaignDegradedAndDeterministic runs a campaign with Penn
// offline for rounds [2,4) and checks the three observable contracts:
// the event stream carries outage placeholders (zero stats, roster
// order preserved), the store holds no Penn rows for the offline
// rounds, and a repeat run is byte-identical.
func TestOutageCampaignDegradedAndDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("outage campaign property test in -short mode")
	}
	cfg := runnerCfg(4)
	cfg.Outages = []VantageOutage{{Vantage: "Penn", From: 2, To: 4}}

	run := func() (*Scenario, []RoundEvent) {
		s, err := NewScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var evs []RoundEvent
		if err := s.RunContext(t.Context(), WithObserver(func(ev RoundEvent) { evs = append(evs, ev) })); err != nil {
			t.Fatal(err)
		}
		if err := s.RunWorldV6DayContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s, evs
	}

	s1, evs := run()
	var outages []RoundEvent
	for _, ev := range evs {
		if ev.Vantage == "Penn" && ev.Round >= 2 && ev.Round < 4 {
			outages = append(outages, ev)
		} else if ev.Outage {
			t.Fatalf("unexpected outage event: %+v", ev)
		}
	}
	if len(outages) != 2 {
		t.Fatalf("got %d Penn events in the outage window, want 2 placeholders", len(outages))
	}
	for _, ev := range outages {
		if !ev.Outage {
			t.Fatalf("Penn round %d ran during its outage window: %+v", ev.Round, ev)
		}
		if ev.Stats.Measured != 0 || ev.Stats.Sites != 0 || ev.Elapsed != 0 {
			t.Fatalf("outage placeholder carries stats: %+v", ev)
		}
	}
	// Roster order must survive the gap: per round, the vantage
	// sequence (outage slots included) matches the configured roster.
	perRound := map[int][]string{}
	for _, ev := range evs {
		perRound[ev.Round] = append(perRound[ev.Round], string(ev.Vantage))
	}
	for r, names := range perRound {
		want := []string{}
		for _, vp := range cfg.Vantages {
			if r >= vp.StartRound {
				want = append(want, string(vp.Name))
			}
		}
		if fmt.Sprint(names) != fmt.Sprint(want) {
			t.Fatalf("round %d event order %v, want roster order %v", r, names, want)
		}
	}

	// No Penn data for the offline rounds — checked in the DNS CSV,
	// which has one row per (vantage, site, round) probe.
	dir1 := t.TempDir()
	saveCampaign(t, s1, dir1)
	f, err := os.Open(filepath.Join(dir1, "main/dns.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	pennRounds := map[string]int{}
	for _, row := range rows[1:] {
		if row[0] == "Penn" {
			pennRounds[row[2]]++
		}
	}
	for _, r := range []string{"2", "3"} {
		if n := pennRounds[r]; n != 0 {
			t.Fatalf("Penn has %d DNS rows in offline round %s", n, r)
		}
	}
	for _, r := range []string{"0", "1", "4"} {
		if pennRounds[r] == 0 {
			t.Fatalf("Penn has no DNS rows in online round %s", r)
		}
	}

	// Determinism: the degraded campaign reproduces byte-for-byte.
	s2, _ := run()
	dir2 := t.TempDir()
	saveCampaign(t, s2, dir2)
	assertCampaignsIdentical(t, dir1, dir2, "outage rerun")
}
