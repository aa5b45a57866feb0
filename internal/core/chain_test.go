package core_test

// Checkpoint chains against live campaigns: after every commit the
// chain a fresh backend loads must be the live database, byte for
// byte.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"v6web/internal/core"
	"v6web/internal/scenario"
	"v6web/internal/store"
)

// chainCheckBackend is a CheckpointBackend that, after each commit,
// loads the newest checkpoint through a fresh backend and compares it
// with the live database.
type chainCheckBackend struct {
	*store.CheckpointBackend
	t        *testing.T
	live     func() *store.DB
	commits  int
	segments int // commits whose directory holds a chain, not a whole base
}

func (b *chainCheckBackend) SaveMeta(m store.Meta) error {
	if err := b.CheckpointBackend.SaveMeta(m); err != nil {
		return err
	}
	b.commits++
	if !isBase(b.t, b.Dir) {
		b.segments++
	}
	fresh := store.NewCheckpointBackend(b.Dir)
	loaded, err := fresh.LoadSnapshot(store.SnapMain)
	if err != nil {
		b.t.Fatalf("commit %d: chain does not load: %v", b.commits, err)
	}
	requireSameDB(b.t, loaded, b.live(), b.Fingerprint)
	return nil
}

// newestCheckpoint returns the newest committed ck- directory.
func newestCheckpoint(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "checkpoints", "ck-*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no committed checkpoints under %s: %v", dir, err)
	}
	sort.Strings(names)
	return names[len(names)-1]
}

// isBase reports whether the newest checkpoint holds the main
// database whole rather than as a chain.
func isBase(t *testing.T, dir string) bool {
	t.Helper()
	_, err := os.Stat(filepath.Join(newestCheckpoint(t, dir), store.SnapMain+store.BinaryExt))
	return err == nil
}

func binaryBytes(t *testing.T, db *store.DB, opt store.BinaryOptions) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db"+store.BinaryExt)
	if err := db.SaveBinary(path, opt); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// requireSameDB fails unless loaded serializes exactly as live, both
// plain and as the base a fresh backend writes for it.
func requireSameDB(t *testing.T, loaded, live *store.DB, fingerprint string) {
	t.Helper()
	if !bytes.Equal(binaryBytes(t, loaded, store.BinaryOptions{}), binaryBytes(t, live, store.BinaryOptions{})) {
		t.Fatalf("loaded chain differs from the live database: %v vs %v", loaded, live)
	}
	dir := t.TempDir()
	b := store.NewCheckpointBackend(dir)
	b.Fingerprint = fingerprint
	if err := b.SaveSnapshot(store.SnapMain, loaded); err != nil {
		t.Fatal(err)
	}
	if err := b.SaveMeta(store.Meta{}); err != nil {
		t.Fatal(err)
	}
	forced, err := os.ReadFile(filepath.Join(newestCheckpoint(t, dir), store.SnapMain+store.BinaryExt))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(forced, binaryBytes(t, live, store.BinaryOptions{Compress: true, Fingerprint: fingerprint})) {
		t.Fatal("a base forced from the loaded chain differs from the live database's")
	}
}

// TestChainEqualsLiveDBEveryRound runs small campaigns checkpointing
// every round and every second round; after each commit the loaded
// chain must equal the live database. vantage-outages' gaps make some
// sites' runs restart after a hole, which takes the explicit-run path.
func TestChainEqualsLiveDBEveryRound(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint chain property test in -short mode")
	}
	small := scenario.Overrides{"topo.ases=250", "list.size=1200", "list.extended=200", "schedule.rounds=8", "schedule.v6day_rounds=2"}
	for _, pack := range []string{"baseline-2011", "vantage-outages"} {
		comp, err := scenario.LoadCompiled(pack, small)
		if err != nil {
			t.Fatal(err)
		}
		for _, every := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/every=%d", pack, every), func(t *testing.T) {
				s, err := core.NewScenario(comp.Config)
				if err != nil {
					t.Fatal(err)
				}
				b := &chainCheckBackend{CheckpointBackend: store.NewCheckpointBackend(t.TempDir()), t: t, live: func() *store.DB { return s.DB }}
				b.Keep = 1
				b.Fingerprint = comp.Config.Fingerprint()
				if err := s.RunContext(context.Background(), core.WithBackend(b), core.WithCheckpoint(every)); err != nil {
					t.Fatal(err)
				}
				t.Logf("%d commits, %d as segments", b.commits, b.segments)
				if b.segments == 0 {
					t.Fatalf("%d commits wrote no segment", b.commits)
				}
			})
		}
	}
}
