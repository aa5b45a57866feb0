package cli

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"v6web/internal/core"
	"v6web/internal/store"
)

// finishedScenario runs a tiny campaign's main study, checkpointing
// every round but the last into dir/checkpoints.
func finishedScenario(t *testing.T, dir string) (*core.Scenario, *store.CheckpointBackend) {
	t.Helper()
	cfg := core.DefaultConfig(3)
	cfg.NASes, cfg.ListSize, cfg.Rounds, cfg.V6DayRounds = 80, 400, 3, 2
	cfg.Vantages = core.ScaledVantages(cfg.Rounds)
	s, err := core.NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck := store.NewCheckpointBackend(dir)
	if err := s.RunContext(context.Background(), core.WithCheckpoint(ck, 1)); err != nil {
		t.Fatal(err)
	}
	return s, ck
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestFinishCancelledWritesNothing: a drain that lands in the
// completion tail commits the finished main study and nothing else —
// no snapshot, no completion meta.json — and leaves the scratch
// directory for the rerun.
func TestFinishCancelledWritesNothing(t *testing.T) {
	dir := t.TempDir()
	s, ck := finishedScenario(t, dir)
	scratch := filepath.Join(dir, "checkpoints")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Finish(ctx, s, dir, ck, scratch); !errors.Is(err, context.Canceled) {
		t.Fatalf("Finish under a cancelled context: %v, want context.Canceled", err)
	}
	for _, name := range []string{store.SnapMain + store.BinaryExt, store.SnapV6Day + store.BinaryExt, "meta.json"} {
		if exists(filepath.Join(dir, name)) {
			t.Errorf("cancelled Finish wrote %s", name)
		}
	}
	if !exists(scratch) {
		t.Error("cancelled Finish removed the scratch directory")
	}
	if meta, ok, err := ck.LoadMeta(); err != nil || !ok || meta.NextRound != s.Cfg.Rounds {
		t.Errorf("finished main study not committed: %+v ok=%v err=%v", meta, ok, err)
	}
}

// TestFinishCompletesOnce: Finish commits the last round (which the
// cadence leaves to it), saves the product, removes the scratch, and
// a second run over the same committed cursor commits nothing new.
func TestFinishCompletesOnce(t *testing.T) {
	dir := t.TempDir()
	s, ck := finishedScenario(t, dir)
	if err := Finish(context.Background(), s, dir, ck, ""); err != nil {
		t.Fatal(err)
	}
	meta, ok, err := store.ReadMeta(dir)
	if err != nil || !ok || !meta.Complete || meta.NextRound != s.Cfg.Rounds || meta.ConfigHash != s.Cfg.Fingerprint() {
		t.Fatalf("completion meta %+v ok=%v err=%v", meta, ok, err)
	}
	for _, name := range []string{store.SnapMain, store.SnapV6Day} {
		if _, err := store.Load(filepath.Join(dir, name)); err != nil {
			t.Errorf("product %s: %v", name, err)
		}
	}
	if cks, _ := filepath.Glob(filepath.Join(dir, "checkpoints", "ck-*")); len(cks) != s.Cfg.Rounds {
		t.Errorf("%d checkpoints, want the cadence's %d plus the finished study", len(cks), s.Cfg.Rounds-1)
	}

	// A rerun over the committed finished study: nothing to commit.
	resumed, err := core.Resume(s.Cfg, store.NewCheckpointBackend(dir))
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{Backend: store.NewCheckpointBackend(dir)}
	scratch := filepath.Join(dir, "checkpoints")
	if err := Finish(context.Background(), resumed, dir, cb, scratch); err != nil {
		t.Fatal(err)
	}
	if cb.commits != 0 {
		t.Errorf("rerun committed %d checkpoints, want none", cb.commits)
	}
	if exists(scratch) {
		t.Error("scratch not removed")
	}
}

type countingBackend struct {
	store.Backend
	commits int
}

func (b *countingBackend) Save(db *store.DB, m store.Meta) error {
	b.commits++
	return b.Backend.Save(db, m)
}

// csvFiles reads every file under dir, keyed by its path relative to
// dir.
func csvFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err == nil {
			out[rel], err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExportCSVMatchesLiveSave: the product Finish wrote, exported as
// `v6report -db -csv` does, is byte for byte what DB.Save writes for
// the live scenario's two databases.
func TestExportCSVMatchesLiveSave(t *testing.T) {
	dir := t.TempDir()
	s, ck := finishedScenario(t, dir)
	if err := Finish(context.Background(), s, dir, ck, ""); err != nil {
		t.Fatal(err)
	}
	live := t.TempDir()
	if err := s.DB.Save(filepath.Join(live, store.SnapMain)); err != nil {
		t.Fatal(err)
	}
	if err := s.V6DayDB.Save(filepath.Join(live, store.SnapV6Day)); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if err := ExportCSV(dir, out); err != nil {
		t.Fatal(err)
	}
	want, got := csvFiles(t, live), csvFiles(t, out)
	if len(want) != 8 || len(got) != len(want) {
		t.Fatalf("export holds %d files, live save %d, want 8 each", len(got), len(want))
	}
	for name, data := range want {
		if !bytes.Equal(got[name], data) {
			t.Errorf("%s: export (%d bytes) differs from the live save (%d bytes)", name, len(got[name]), len(data))
		}
	}
}

// TestOpenCompletedNeedsBothSnapshots: a product missing either
// snapshot does not open, naming the missing file — whether Finish's
// output lost one, or an earlier build wrote the product as main/ and
// v6day/ CSV directories beside a complete meta.json.
func TestOpenCompletedNeedsBothSnapshots(t *testing.T) {
	dir := t.TempDir()
	s, ck := finishedScenario(t, dir)
	if err := Finish(context.Background(), s, dir, ck, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenCompleted(dir); err != nil {
		t.Fatalf("finished product: %v", err)
	}
	for _, name := range []string{store.SnapV6Day, store.SnapMain} {
		file := name + store.BinaryExt
		if err := os.Remove(filepath.Join(dir, file)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenCompleted(dir); !errors.Is(err, store.ErrNoDatabase) || !strings.Contains(err.Error(), file) {
			t.Errorf("product without %s: %v, want ErrNoDatabase naming it", file, err)
		}
	}

	csvEra := t.TempDir()
	if err := s.DB.Save(filepath.Join(csvEra, store.SnapMain)); err != nil {
		t.Fatal(err)
	}
	if err := s.V6DayDB.Save(filepath.Join(csvEra, store.SnapV6Day)); err != nil {
		t.Fatal(err)
	}
	meta, _, err := store.ReadMeta(dir)
	if err != nil || !meta.Complete {
		t.Fatalf("completion meta %+v: %v", meta, err)
	}
	if err := store.WriteMeta(csvEra, meta); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenCompleted(csvEra); !errors.Is(err, store.ErrNoDatabase) || !strings.Contains(err.Error(), store.SnapMain+store.BinaryExt) {
		t.Errorf("CSV-era product: %v, want ErrNoDatabase naming %s", err, store.SnapMain+store.BinaryExt)
	}
}
