package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"v6web/internal/store"
)

// runnerCfg is a campaign small enough that the resume property test
// can afford several full runs per seed.
func runnerCfg(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.NASes = 250
	cfg.ListSize = 1200
	cfg.Extended = 200
	cfg.Rounds = 7
	cfg.V6DayRounds = 4
	cfg.Vantages = ScaledVantages(cfg.Rounds)
	return cfg
}

// saveCampaign persists both databases the way v6mon does.
func saveCampaign(t *testing.T, s *Scenario, dir string) {
	t.Helper()
	if err := s.DB.Save(filepath.Join(dir, store.SnapMain)); err != nil {
		t.Fatal(err)
	}
	if err := s.V6DayDB.Save(filepath.Join(dir, store.SnapV6Day)); err != nil {
		t.Fatal(err)
	}
}

// campaignFiles are every CSV a saved campaign produces.
var campaignFiles = []string{
	"main/sites.csv", "main/dns.csv", "main/samples.csv", "main/paths.csv",
	"v6day/sites.csv", "v6day/dns.csv", "v6day/samples.csv", "v6day/paths.csv",
}

func assertCampaignsIdentical(t *testing.T, refDir, gotDir, label string) {
	t.Helper()
	for _, name := range campaignFiles {
		want, err := os.ReadFile(filepath.Join(refDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(gotDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Fatalf("%s: %s differs from uninterrupted run (%d vs %d bytes)", label, name, len(got), len(want))
		}
	}
}

// TestKillResumeByteIdentical is the checkpoint/resume property test:
// a campaign killed at round k (context cancellation, as SIGINT
// delivers) and resumed from its checkpoint in a fresh Scenario — as
// a restarted process would — must produce byte-identical final CSVs
// to a campaign that was never interrupted. Three seeds, three
// different kill rounds.
func TestKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("resume property test in -short mode")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := runnerCfg(seed)
			killAt := 2 + int(seed)%3 // rounds 3, 4, 2 complete before the kill lands

			// Reference: uninterrupted campaign.
			ref, err := NewScenario(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.RunContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := ref.RunWorldV6DayContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			refDir := t.TempDir()
			saveCampaign(t, ref, refDir)

			// Interrupted campaign: checkpoint every round, cancel once
			// round killAt has completed. Cancellation is detected at
			// the next round boundary, so rounds 0..killAt land in the
			// checkpoint and the campaign dies before round killAt+1.
			ckptDir := t.TempDir()
			backend := store.NewCheckpointBackend(ckptDir)
			s1, err := NewScenario(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			err = s1.RunContext(ctx,
				WithBackend(backend), WithCheckpoint(1),
				WithObserver(func(ev RoundEvent) {
					if ev.Round == killAt {
						cancel()
					}
				}))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run returned %v, want context.Canceled", err)
			}
			if done := s1.RoundsDone(); done != killAt+1 {
				t.Fatalf("killed after %d rounds, want %d", done, killAt+1)
			}
			// s1 is dead from here on: the process was "killed".

			// Resume in a fresh scenario and finish the campaign.
			s2, err := Resume(cfg, backend)
			if err != nil {
				t.Fatal(err)
			}
			if s2.RoundsDone() != killAt+1 {
				t.Fatalf("resumed at round %d, want %d", s2.RoundsDone(), killAt+1)
			}
			if err := s2.RunContext(context.Background(), WithBackend(backend), WithCheckpoint(2)); err != nil {
				t.Fatal(err)
			}
			if err := s2.RunWorldV6DayContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			resDir := t.TempDir()
			saveCampaign(t, s2, resDir)

			assertCampaignsIdentical(t, refDir, resDir, fmt.Sprintf("seed %d killed at round %d", seed, killAt))
		})
	}
}

// TestWithRoundsSplitEqualsFullRun drives one campaign in two windows
// over the cursor API and checks it matches a single uninterrupted
// run byte for byte.
func TestWithRoundsSplitEqualsFullRun(t *testing.T) {
	if testing.Short() {
		t.Skip("split-run test in -short mode")
	}
	cfg := runnerCfg(9)

	ref, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ref.RunWorldV6DayContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	saveCampaign(t, ref, refDir)

	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunContext(context.Background(), WithRounds(0, 3)); err != nil {
		t.Fatal(err)
	}
	if s.RoundsDone() != 3 {
		t.Fatalf("cursor after window: %d", s.RoundsDone())
	}
	if err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.RunWorldV6DayContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	gotDir := t.TempDir()
	saveCampaign(t, s, gotDir)
	assertCampaignsIdentical(t, refDir, gotDir, "split windows")
}

func TestNextRoundCursorAndEvents(t *testing.T) {
	cfg := runnerCfg(4)
	cfg.Rounds = 3
	cfg.V6DayRounds = 2
	cfg.Vantages = ScaledVantages(cfg.Rounds)
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events []RoundEvent
	obs := func(ev RoundEvent) { events = append(events, ev) }
	for r := 0; r < cfg.Rounds; r++ {
		if s.RoundsDone() != r {
			t.Fatalf("cursor %d at round %d", s.RoundsDone(), r)
		}
		if err := s.NextRound(obs); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.NextRound(); err == nil {
		t.Fatal("NextRound past the last round succeeded")
	}
	// One event per (round, started vantage).
	want := 0
	for r := 0; r < cfg.Rounds; r++ {
		for _, vp := range cfg.Vantages {
			if r >= vp.StartRound {
				want++
			}
		}
	}
	if len(events) != want {
		t.Fatalf("%d events, want %d", len(events), want)
	}
	for _, ev := range events {
		if !ev.Date.Equal(s.RoundDate(ev.Round)) {
			t.Fatalf("event date %v does not match round %d date %v", ev.Date, ev.Round, s.RoundDate(ev.Round))
		}
		if ev.Stats.Sites <= 0 {
			t.Fatalf("event with no sites: %+v", ev)
		}
	}
	// The event stream also covers the side experiment.
	events = events[:0]
	if err := s.RunWorldV6DayContext(context.Background(), WithObserver(obs)); err != nil {
		t.Fatal(err)
	}
	v6dayVantages := 0
	for _, vp := range cfg.Vantages {
		if vp.V6Day {
			v6dayVantages++
		}
	}
	if len(events) != v6dayVantages*cfg.V6DayRounds {
		t.Fatalf("%d v6day events, want %d", len(events), v6dayVantages*cfg.V6DayRounds)
	}
}

func TestRunContextOptionValidation(t *testing.T) {
	cfg := runnerCfg(5)
	cfg.Rounds = 2
	cfg.Vantages = ScaledVantages(cfg.Rounds)
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunContext(context.Background(), WithCheckpoint(1)); err == nil {
		t.Fatal("WithCheckpoint without WithBackend accepted")
	}
	if err := s.RunContext(context.Background(), WithRounds(3, 1)); err == nil {
		t.Fatal("inverted round window accepted")
	}
	// A pre-cancelled context stops before any work, but still
	// checkpoints the (empty) progress when checkpointing is on.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := store.NewCheckpointBackend(t.TempDir())
	if err := s.RunContext(ctx, WithBackend(b), WithCheckpoint(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: %v", err)
	}
	meta, ok, err := b.LoadMeta()
	if err != nil || !ok || meta.NextRound != 0 {
		t.Fatalf("cancel checkpoint: %+v ok=%v err=%v", meta, ok, err)
	}
}

func TestResumeRejectsMismatchedConfig(t *testing.T) {
	cfg := runnerCfg(6)
	cfg.Rounds = 2
	cfg.Vantages = ScaledVantages(cfg.Rounds)
	b := store.NewCheckpointBackend(t.TempDir())
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunContext(context.Background(), WithBackend(b), WithCheckpoint(1), WithRounds(0, 1)); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	other.Vantages = ScaledVantages(other.Rounds)
	if _, err := Resume(other, b); err == nil {
		t.Fatal("resume under a different seed accepted")
	}
	if _, err := Resume(cfg, store.NewCheckpointBackend(t.TempDir())); err == nil {
		t.Fatal("resume from an empty backend accepted")
	}
	if s2, err := Resume(cfg, b); err != nil {
		t.Fatal(err)
	} else if s2.RoundsDone() != 1 {
		t.Fatalf("resumed cursor %d, want 1", s2.RoundsDone())
	}
}
