package core

// CSV-era checkpoints: builds before the binary-only checkpoint log
// could commit each checkpoint's database as a CSV directory. A
// campaign checkpointed that way must still resume with byte-identical
// final CSVs, and its next checkpoint is binary.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"v6web/internal/store"
)

// latestCheckpointDir returns the newest committed checkpoint under a
// CheckpointBackend root.
func latestCheckpointDir(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "checkpoints", "ck-*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no committed checkpoints under %s: %v", dir, err)
	}
	sort.Strings(names)
	return names[len(names)-1]
}

// TestResumeAcrossFormatsByteIdentical kills a campaign mid-run,
// rewrites its newest checkpoint into the CSV layout (the .v6db's
// database saved as <ck>/main), resumes it, and requires final CSVs
// byte-identical to an uninterrupted run across three seeds. It also
// pins that the resumed run's next commit is binary.
func TestResumeAcrossFormatsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("format migration property test in -short mode")
	}
	for _, seed := range []int64{11, 12, 13} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d/csv-then-binary", seed), func(t *testing.T) {
			cfg := runnerCfg(seed)
			killAt := 2 + int(seed)%3

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

			ckptDir := t.TempDir()
			first := store.NewCheckpointBackend(ckptDir)
			first.Fingerprint = cfg.Fingerprint()
			s1, err := NewScenario(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			err = s1.RunContext(ctx,
				WithBackend(first), WithCheckpoint(1),
				WithObserver(func(ev RoundEvent) {
					if ev.Round == killAt {
						cancel()
					}
				}))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("interrupted run returned %v, want context.Canceled", err)
			}

			ck := latestCheckpointDir(t, ckptDir)
			bin := filepath.Join(ck, store.SnapMain+store.BinaryExt)
			db, err := store.LoadBinary(bin)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Save(filepath.Join(ck, store.SnapMain)); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(bin); err != nil {
				t.Fatal(err)
			}

			// Resume as a restarted process would: a fresh backend over
			// the same directory.
			second := store.NewCheckpointBackend(ckptDir)
			second.Fingerprint = cfg.Fingerprint()
			s2, err := Resume(cfg, second)
			if err != nil {
				t.Fatal(err)
			}
			if s2.RoundsDone() != killAt+1 {
				t.Fatalf("resumed at round %d, want %d", s2.RoundsDone(), killAt+1)
			}
			if err := s2.RunContext(context.Background(), WithBackend(second), WithCheckpoint(1)); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(latestCheckpointDir(t, ckptDir), store.SnapMain+store.BinaryExt)); err != nil {
				t.Fatalf("next checkpoint is not binary: %v", err)
			}
			if err := s2.RunWorldV6DayContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			resDir := t.TempDir()
			saveCampaign(t, s2, resDir)
			assertCampaignsIdentical(t, refDir, resDir,
				fmt.Sprintf("seed %d CSV-era checkpoint at round %d", seed, killAt))
		})
	}
}
