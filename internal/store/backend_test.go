package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"v6web/internal/topo"
)

func backendSampleDB() *DB {
	db := NewDB()
	db.PutSite(SiteRow{Site: 1, Host: "one.test", FirstRank: 3, V4AS: 9, V6AS: 12})
	db.AddDNS("penn", DNSRow{Site: 1, Round: 0, HasA: true, HasAAAA: true, Identical: true})
	db.AddSample("penn", 1, topo.V4, Sample{Round: 0, Date: time.Unix(0, 0).UTC(), PageBytes: 100, Downloads: 3, MeanSpeed: 55, CIOK: true})
	db.AddPath("penn", topo.V4, 9, 0, []int{2, 5, 9})
	return db
}

// TestWriteMetaRoundTrip: the completion metadata a finished
// campaign's product carries reads back as written, and a directory
// without it reads as ok=false.
func TestWriteMetaRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadMeta(dir); err != nil || ok {
		t.Fatalf("empty dir meta: ok=%v err=%v", ok, err)
	}
	meta := Meta{NextRound: 7, Rounds: 35, ConfigHash: "cafe", SavedAt: time.Now().UTC()}
	if err := WriteMeta(dir, meta); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadMeta(dir)
	if err != nil || !ok {
		t.Fatalf("ReadMeta: ok=%v err=%v", ok, err)
	}
	if got.NextRound != 7 || got.ConfigHash != "cafe" || got.Complete {
		t.Fatalf("meta round-trip: %+v", got)
	}
}

func TestCheckpointBackendCommitAndLatest(t *testing.T) {
	b := NewCheckpointBackend(t.TempDir())
	if _, ok, err := b.LoadMeta(); err != nil || ok {
		t.Fatalf("empty backend meta: ok=%v err=%v", ok, err)
	}
	if _, err := b.Load(); !errors.Is(err, ErrNoDatabase) {
		t.Fatalf("LoadSnapshot on empty backend: %v", err)
	}

	db := backendSampleDB()
	for round := 1; round <= 3; round++ {
		if round == 3 {
			db.AddDNS("penn", DNSRow{Site: 2, Round: 2, HasA: true})
		}
		if err := b.Save(db, Meta{NextRound: round, Rounds: 3, ConfigHash: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	meta, ok, err := b.LoadMeta()
	if err != nil || !ok || meta.NextRound != 3 {
		t.Fatalf("latest meta: %+v ok=%v err=%v", meta, ok, err)
	}
	loaded, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if _, d, _, _ := loaded.Counts(); d != 2 {
		t.Fatalf("latest snapshot dns rows: %d", d)
	}
}

func TestCheckpointBackendIgnoresCrashedStaging(t *testing.T) {
	dir := t.TempDir()
	b := NewCheckpointBackend(dir)
	if err := b.Save(backendSampleDB(), Meta{NextRound: 1, Rounds: 5}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-checkpoint: a fresh backend (new process)
	// finds a half-written staging directory and an uncommitted-looking
	// directory without meta.json. Both must be invisible to loads.
	if err := os.MkdirAll(filepath.Join(dir, "checkpoints", ".staging", SnapMain), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "checkpoints", "ck-000099"), 0o755); err != nil {
		t.Fatal(err)
	}
	b2 := NewCheckpointBackend(dir)
	meta, ok, err := b2.LoadMeta()
	if err != nil || !ok || meta.NextRound != 1 {
		t.Fatalf("recovered meta: %+v ok=%v err=%v", meta, ok, err)
	}
	if _, err := b2.Load(); err != nil {
		t.Fatalf("recovered snapshot: %v", err)
	}
	// The next commit must not collide with the junk ck-000099 name.
	if err := b2.Save(backendSampleDB(), Meta{NextRound: 2, Rounds: 5}); err != nil {
		t.Fatal(err)
	}
	if meta, _, _ := b2.LoadMeta(); meta.NextRound != 2 {
		t.Fatalf("post-recovery commit not latest: %+v", meta)
	}
}

// TestCheckpointBackendPrunes: a commit keeps the newest three
// checkpoints.
func TestCheckpointBackendPrunes(t *testing.T) {
	b := NewCheckpointBackend(t.TempDir())
	db := backendSampleDB()
	for round := 1; round <= 5; round++ {
		if err := b.Save(db, Meta{NextRound: round, Rounds: 5}); err != nil {
			t.Fatal(err)
		}
	}
	names, err := b.committed()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "ck-000002" {
		t.Fatalf("pruning kept %v, want the newest three", names)
	}
	if meta, _, _ := b.LoadMeta(); meta.NextRound != 5 {
		t.Fatalf("pruning lost the newest checkpoint: %+v", meta)
	}
}

// TestLoadEmptyDirIsErrNoDatabase: a directory without a snapshot
// holds no database, whatever else it holds: Load of its main is
// ErrNoDatabase naming main.v6db when the directory is empty, missing,
// or holds the CSV export an earlier build wrote as its product.
func TestLoadEmptyDirIsErrNoDatabase(t *testing.T) {
	csvEra := t.TempDir()
	if err := backendSampleDB().Save(filepath.Join(csvEra, SnapMain)); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{t.TempDir(), filepath.Join(t.TempDir(), "nonexistent"), csvEra} {
		if _, err := Load(filepath.Join(dir, SnapMain)); !errors.Is(err, ErrNoDatabase) || !strings.Contains(err.Error(), SnapMain+BinaryExt) {
			t.Errorf("%s: %v, want ErrNoDatabase naming %s", dir, err, SnapMain+BinaryExt)
		}
	}
}

func TestSaveDNSCanonicalOrder(t *testing.T) {
	// Two databases with the same rows inserted in different orders
	// (concurrent workers interleave sites arbitrarily, each site's
	// rounds in order) must serialize to byte-identical files.
	rows := []DNSRow{
		{Site: 9, Round: 1, HasA: true},
		{Site: 2, Round: 0, HasA: true, HasAAAA: true},
		{Site: 2, Round: 1, HasA: true},
		{Site: 5, Round: 0, HasA: true},
	}
	mk := func(order []int) string {
		db := NewDB()
		for _, i := range order {
			db.AddDNS("penn", rows[i])
		}
		dir := t.TempDir()
		if err := db.Save(dir); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, dnsFile))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	a := mk([]int{0, 1, 2, 3})
	b := mk([]int{3, 1, 0, 2})
	if a != b {
		t.Fatalf("dns.csv not canonical:\n%s\nvs\n%s", a, b)
	}
}

// TestCheckpointWriterFencing: Acquire revokes every earlier write
// handle — a stale writer (an abandoned campaign attempt) gets
// ErrStaleWriter from Save and commits nothing, instead of clobbering
// the active writer's staging directory or colliding on checkpoint
// sequence numbers.
func TestCheckpointWriterFencing(t *testing.T) {
	b := NewCheckpointBackend(t.TempDir())
	w1 := b.Acquire()
	if err := w1.Save(backendSampleDB(), Meta{NextRound: 1, Rounds: 5}); err != nil {
		t.Fatal(err)
	}

	// The replacement attempt acquires its own handle: w1 is revoked.
	w2 := b.Acquire()
	if err := w1.Save(backendSampleDB(), Meta{NextRound: 99, Rounds: 99}); !errors.Is(err, ErrStaleWriter) {
		t.Fatalf("stale Save: %v, want ErrStaleWriter", err)
	}
	if meta, _, err := b.LoadMeta(); err != nil || meta.NextRound != 1 {
		t.Fatalf("a stale Save committed: %+v err=%v", meta, err)
	}

	db := backendSampleDB()
	db.AddDNS("penn", DNSRow{Site: 2, Round: 1, HasA: true})
	if err := w2.Save(db, Meta{NextRound: 2, Rounds: 5}); err != nil {
		t.Fatal(err)
	}
	meta, ok, err := b.LoadMeta()
	if err != nil || !ok || meta.NextRound != 2 {
		t.Fatalf("committed meta: %+v ok=%v err=%v", meta, ok, err)
	}
	loaded, err := w1.Load() // loads are not fenced
	if err != nil {
		t.Fatal(err)
	}
	if _, d, _, _ := loaded.Counts(); d != 2 {
		t.Fatalf("committed snapshot has %d dns rows, want w2's 2", d)
	}
	names, err := b.committed()
	if err != nil || len(names) != 2 {
		t.Fatalf("committed checkpoints: %v err=%v, want w1's and w2's", names, err)
	}

	// Both writers revoked by a third: neither can commit anymore.
	b.Acquire()
	for i, w := range []*CheckpointWriter{w1, w2} {
		if err := w.Save(db, Meta{NextRound: 3, Rounds: 5}); !errors.Is(err, ErrStaleWriter) {
			t.Fatalf("revoked w%d Save: %v, want ErrStaleWriter", i+1, err)
		}
	}
	if names, _ := b.committed(); len(names) != 2 {
		t.Fatalf("revoked writers committed: %v", names)
	}
}
