package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"v6web/internal/alexa"
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
				WithCheckpoint(backend, 1),
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
			if err := s2.RunContext(context.Background(), WithCheckpoint(backend, 2)); err != nil {
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

// TestStopAndContinueEqualsFullRun stops one campaign at a round
// boundary by cancelling its context from an observer (the way
// `v6mon -stop-after` stops), continues it in the same Scenario, and
// checks it matches a single uninterrupted run byte for byte.
func TestStopAndContinueEqualsFullRun(t *testing.T) {
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
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	err = s.RunContext(ctx, WithObserver(func(ev RoundEvent) {
		if ev.Round+1 >= 3 {
			stop()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stopped run returned %v, want context.Canceled", err)
	}
	if s.RoundsDone() != 3 {
		t.Fatalf("cursor after the stop: %d", s.RoundsDone())
	}
	if err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.RunWorldV6DayContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	gotDir := t.TempDir()
	saveCampaign(t, s, gotDir)
	assertCampaignsIdentical(t, refDir, gotDir, "stop and continue")
}

// commitLog is a checkpoint backend that records the cursor of every
// commit.
type commitLog struct {
	*store.CheckpointBackend
	commits []int
}

func (b *commitLog) Save(db *store.DB, m store.Meta) error {
	b.commits = append(b.commits, m.NextRound)
	return b.CheckpointBackend.Save(db, m)
}

// TestRunContextCheckpointRule pins the one checkpoint rule: commit on
// the cadence before the last round, on an early stop only a cursor
// the backend does not already hold, and never the finished study
// (that is the caller's). The round hook runs before the cadence
// checkpoint unless it takes it first.
func TestRunContextCheckpointRule(t *testing.T) {
	cfg := runnerCfg(10)
	cfg.Rounds = 6
	cfg.Vantages = ScaledVantages(cfg.Rounds)
	for _, first := range []bool{false, true} {
		b := &commitLog{CheckpointBackend: store.NewCheckpointBackend(t.TempDir())}
		s, err := NewScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var hooked, seen []int
		if err := s.RunContext(context.Background(), WithCheckpoint(b, 2),
			WithRoundHook(func(done int, commit func() error) error {
				if first {
					if err := commit(); err != nil {
						return err
					}
				}
				hooked = append(hooked, done)
				seen = append(seen, len(b.commits))
				return nil
			})); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(b.commits) != "[2 4]" {
			t.Errorf("commits at %v, want [2 4]: on the cadence, not after the last round", b.commits)
		}
		want := "[0 0 1 1 2 2]"
		if first {
			want = "[0 1 1 2 2 2]"
		}
		if fmt.Sprint(hooked) != "[1 2 3 4 5 6]" || fmt.Sprint(seen) != want {
			t.Errorf("commit first %v: hook saw rounds %v with %v commits, want %s", first, hooked, seen, want)
		}
	}

	// Stopped right after a cadence checkpoint: nothing to commit.
	b := &commitLog{CheckpointBackend: store.NewCheckpointBackend(t.TempDir())}
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	err = s.RunContext(ctx, WithCheckpoint(b, 2), WithRoundHook(func(done int, _ func() error) error {
		if done == 4 {
			stop()
		}
		return nil
	}))
	if !errors.Is(err, context.Canceled) || fmt.Sprint(b.commits) != "[2 4]" {
		t.Errorf("stop after the round-4 checkpoint: err %v, commits %v, want Canceled and [2 4]", err, b.commits)
	}

	// Resumed, then stopped before its first round: nothing to commit.
	b = &commitLog{CheckpointBackend: store.NewCheckpointBackend(b.Dir)}
	if s, err = Resume(cfg, b); err != nil {
		t.Fatal(err)
	}
	if err := s.RunContext(ctx, WithCheckpoint(b, 2)); !errors.Is(err, context.Canceled) || len(b.commits) != 0 {
		t.Errorf("resumed and stopped at once: err %v, commits %v, want Canceled and none", err, b.commits)
	}

	// A hook error ends the run without a shutdown checkpoint.
	boom := errors.New("boom")
	err = s.RunContext(context.Background(), WithCheckpoint(b, 2), WithRoundHook(func(int, func() error) error { return boom }))
	if !errors.Is(err, boom) || s.RoundsDone() != 5 || len(b.commits) != 0 {
		t.Errorf("hook error: err %v at round %d, commits %v, want boom at 5 and none", err, s.RoundsDone(), b.commits)
	}
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
	if err := s.RunContext(context.Background(), WithCheckpoint(nil, 1)); err == nil {
		t.Fatal("WithCheckpoint with a nil backend accepted")
	}
	// A pre-cancelled context stops before any work, but still
	// checkpoints the (empty) progress when checkpointing is on.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := store.NewCheckpointBackend(t.TempDir())
	if err := s.RunContext(ctx, WithCheckpoint(b, 1)); !errors.Is(err, context.Canceled) {
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
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	if err := s.RunContext(ctx, WithCheckpoint(b, 1), WithObserver(func(RoundEvent) { stop() })); !errors.Is(err, context.Canceled) {
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
	// A checkpoint database laid out for another extended base is an
	// error, not a panic in the adopted database's Reserve.
	elsewhere := store.NewDB()
	elsewhere.Reserve(16, ExtendedBase+1<<20, 16)
	held := &heldBackend{meta: store.Meta{NextRound: 1, Rounds: cfg.Rounds, ConfigHash: cfg.Fingerprint()}, db: elsewhere}
	if _, err := Resume(cfg, held); err == nil || !strings.Contains(err.Error(), "extended ids") {
		t.Fatalf("resume over another extended base: %v, want an extended-range error", err)
	}
}

// TestOpenResumesOrStartsFresh: Open starts a fresh campaign at round
// 0 from a backend without a committed checkpoint, resumes a committed
// checkpoint at its round with the database it holds, and refuses
// another configuration's checkpoint with Resume's fingerprint error
// instead of starting over.
func TestOpenResumesOrStartsFresh(t *testing.T) {
	cfg := runnerCfg(6)
	cfg.Rounds = 3
	cfg.Vantages = ScaledVantages(cfg.Rounds)
	b := store.NewCheckpointBackend(t.TempDir())
	s, resumed, err := Open(cfg, b)
	if err != nil || resumed || s.RoundsDone() != 0 {
		t.Fatalf("empty backend: resumed=%v err=%v", resumed, err)
	}
	for r := 0; r < 2; r++ {
		if err := s.NextRound(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(b); err != nil {
		t.Fatal(err)
	}
	s2, resumed, err := Open(cfg, store.NewCheckpointBackend(b.Dir))
	if err != nil || !resumed || s2.RoundsDone() != 2 {
		t.Fatalf("committed checkpoint: resumed=%v err=%v", resumed, err)
	}
	if s2.DB.String() != s.DB.String() {
		t.Fatalf("resumed database %v, checkpointed %v", s2.DB, s.DB)
	}
	other := cfg
	other.Seed++
	if _, _, err := Open(other, b); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("another configuration's checkpoint: %v, want the fingerprint error", err)
	}
}

// heldBackend holds one checkpoint in memory: the metadata LoadMeta
// returns and the main database Load hands out. It takes no saves.
type heldBackend struct {
	meta store.Meta
	db   *store.DB
}

var errHeld = errors.New("held backend takes no saves")

func (b *heldBackend) Save(*store.DB, store.Meta) error    { return errHeld }
func (b *heldBackend) LoadMeta() (store.Meta, bool, error) { return b.meta, true, nil }
func (b *heldBackend) Load() (*store.DB, error)            { return b.db, nil }

// TestResumeAdoptsLoadedDB: Resume keeps the database its backend
// loaded as the scenario's DB instead of copying its rows into a fresh
// one; the loaded rows stay, and the resumed rounds write into that
// same database.
func TestResumeAdoptsLoadedDB(t *testing.T) {
	cfg := runnerCfg(6)
	cfg.Rounds = 2
	cfg.Vantages = ScaledVantages(cfg.Rounds)
	db := store.NewDB()
	db.PutSite(store.SiteRow{Site: 3, Host: "held.example", FirstRank: 4, V4AS: 1, V6AS: -1})
	b := &heldBackend{meta: store.Meta{NextRound: 1, Rounds: cfg.Rounds, ConfigHash: cfg.Fingerprint()}, db: db}
	s, err := Resume(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	if s.DB != db {
		t.Fatal("Resume did not adopt the database Load returned")
	}
	if s.RoundsDone() != 1 {
		t.Fatalf("resumed cursor %d, want 1", s.RoundsDone())
	}
	if row, ok := db.Site(3); !ok || row.Host != "held.example" {
		t.Fatalf("the held row after Resume: %+v ok=%v", row, ok)
	}
	if err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.DB != db {
		t.Fatal("the resumed campaign replaced its database")
	}
	if _, dns, _, _ := db.Counts(); dns == 0 {
		t.Fatal("the resumed round wrote no DNS rows into the adopted database")
	}
}

// TestWorldV6DayCancelLeavesDBUntouched: World IPv6 Day runs into a
// staging database that becomes V6DayDB only once the run completes,
// so a cancelled run leaves V6DayDB as it was and a rerun completes.
func TestWorldV6DayCancelLeavesDBUntouched(t *testing.T) {
	s, err := NewScenario(runnerCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	before := s.V6DayDB
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.RunWorldV6DayContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v, want context.Canceled", err)
	}
	if s.V6DayDB != before || before.String() != store.NewDB().String() {
		t.Fatalf("a cancelled run changed V6DayDB: %v", s.V6DayDB)
	}
	if err := s.RunWorldV6DayContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, dns, samples, _ := s.V6DayDB.Counts(); dns == 0 || samples == 0 {
		t.Fatalf("the rerun left V6DayDB without rows: %v", s.V6DayDB)
	}
}

// TestWorldV6DayDBReservesNoRange: World IPv6 Day's database reserves
// no dense id range, so its few participants live in the overflow maps,
// while the main database reserves the ranked list. The snapshot
// headers say so.
func TestWorldV6DayDBReservesNoRange(t *testing.T) {
	s, err := NewScenario(runnerCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunWorldV6DayContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sites, dns, samples, _ := s.V6DayDB.Counts(); sites == 0 || dns == 0 || samples == 0 {
		t.Fatalf("World IPv6 Day wrote no rows: %v", s.V6DayDB)
	}
	dir := t.TempDir()
	for name, db := range map[string]*store.DB{store.SnapMain: s.DB, store.SnapV6Day: s.V6DayDB} {
		path := filepath.Join(dir, name+store.BinaryExt)
		if err := db.SaveBinary(path, store.BinaryOptions{}); err != nil {
			t.Fatal(err)
		}
		info, err := store.ReadBinaryInfo(path)
		if err != nil {
			t.Fatal(err)
		}
		reserved := info.MainIDs > 0 || info.ExtIDs > 0
		if reserved != (name == store.SnapMain) {
			t.Errorf("%s reserves main %d, extended %d ids", name, info.MainIDs, info.ExtIDs)
		}
	}
}

// TestRestrictedScenarioRecordsNoPaths: a restricted scenario monitors
// exactly its slice of the sites, at every vantage and round, but takes
// no path snapshots; a shard coordinator derives the campaign's table
// once every slice has merged (ReplayPaths).
func TestRestrictedScenarioRecordsNoPaths(t *testing.T) {
	cfg := runnerCfg(5)
	run := func(r *SiteRange) *store.DB {
		s, err := NewScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r != nil {
			s.Restrict(*r)
		}
		if err := s.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s.DB
	}
	r := SiteRange{MainLo: 0, MainHi: 600, ExtLo: ExtendedBase, ExtHi: ExtendedBase + 100}
	full, slice := run(nil), run(&r)
	if _, _, _, paths := full.Counts(); paths == 0 {
		t.Fatal("the unrestricted campaign recorded no path snapshots")
	}
	if _, dns, _, paths := slice.Counts(); dns == 0 || paths != 0 {
		t.Fatalf("restricted campaign: %d DNS rows, %d path snapshots; want rows and no snapshots", dns, paths)
	}
	inRange := func(id alexa.SiteID) bool {
		return id >= r.MainLo && id < r.MainHi || id >= r.ExtLo && id < r.ExtHi
	}
	for _, vp := range cfg.Vantages {
		var want []store.DNSRow
		for _, row := range full.DNS(vp.Name) {
			if inRange(row.Site) {
				want = append(want, row)
			}
		}
		if got := slice.DNS(vp.Name); !slices.Equal(got, want) {
			t.Errorf("%s: restricted campaign holds %d DNS rows, want the unrestricted campaign's %d inside the range", vp.Name, len(got), len(want))
		}
	}
}
