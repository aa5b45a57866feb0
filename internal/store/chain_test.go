package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// chainRound appends round r to db in a monitor's shape, on top of
// binarySampleDB (rounds < 10): most sites extend their open run,
// site 1 flips state every round, site 7 skips rounds, site 8 stops
// after round 12, site 4 gets a duplicate round, an extended and an
// overflow site keep measuring, samples, path snapshots and site rows
// change, a vantage appears at round 13 and the reservation grows at
// round 15.
func chainRound(db *DB, r int) {
	date := time.Date(2011, 9, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, 7*r)
	vantages := []Vantage{"penn", "seattle"}
	if r >= 13 {
		vantages = append(vantages, "tokyo")
	}
	if r == 15 {
		db.Reserve(100, 1<<20, 32)
	}
	for _, v := range vantages {
		for id := alexa.SiteID(0); id < 40; id++ {
			switch {
			case id == 1:
				db.AddDNS(v, DNSRow{Site: 1, Round: r, HasA: true, HasAAAA: r%2 == 0})
			case id == 7 && r%3 != 0, id == 8 && r > 12:
			default:
				db.AddDNS(v, DNSRow{Site: id, Round: r, HasA: true, HasAAAA: id%5 == 0, Identical: true})
			}
		}
		db.AddDNS(v, DNSRow{Site: 4, Round: r, HasA: true})
		db.AddDNS(v, DNSRow{Site: 1<<20 + 2, Round: r, HasAAAA: true})
		db.AddDNS(v, DNSRow{Site: 5_000_000, Round: r, HasA: true})
		db.AddSample(v, 0, topo.V4, Sample{Round: r, Date: date, PageBytes: 100 + r, Downloads: 3, MeanSpeed: 50 + float64(r), CIOK: true})
		db.AddSample(v, alexa.SiteID(10+r%20), topo.V6, Sample{Round: r, Date: date, PageBytes: 90, Downloads: 5, MeanSpeed: 0.5, CIOK: r%4 != 0})
		db.AddPath(v, topo.V4, 9, r, []int{2, 5 + r%2, 9})
		db.AddPath(v, topo.V6, 100+r, r, []int{2, 100 + r})
	}
	db.PutSite(SiteRow{Site: alexa.SiteID(r % 40), Host: alexa.HostName(alexa.SiteID(r % 40)), FirstRank: r, V4AS: r, V6AS: -1})
	db.PutSite(SiteRow{Site: alexa.SiteID(40 + r), Host: "new.example", FirstRank: 40 + r, V4AS: 1, V6AS: 1})
}

// snapshotBytes is SaveBinary's output for db.
func snapshotBytes(t *testing.T, db *DB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db"+BinaryExt)
	if err := db.SaveBinary(path, BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// loadNewest loads the newest committed main snapshot under dir
// through a fresh backend, as a resuming process would.
func loadNewest(t *testing.T, dir string) (*DB, Meta) {
	t.Helper()
	b := NewCheckpointBackend(dir)
	meta, ok, err := b.LoadMeta()
	if err != nil || !ok {
		t.Fatalf("newest meta: ok=%v err=%v", ok, err)
	}
	db, err := b.LoadSnapshot(SnapMain)
	if err != nil {
		t.Fatalf("newest checkpoint does not load: %v", err)
	}
	return db, meta
}

// requireLoadsAs fails unless the newest checkpoint under dir
// serializes exactly as live.
func requireLoadsAs(t *testing.T, dir string, live *DB) {
	t.Helper()
	loaded, _ := loadNewest(t, dir)
	if !bytes.Equal(snapshotBytes(t, loaded), snapshotBytes(t, live)) {
		t.Fatalf("loaded checkpoint %v differs from the live database %v", loaded, live)
	}
}

// newestIsBase reports whether b's newest checkpoint holds main whole.
func newestIsBase(t *testing.T, b *CheckpointBackend) bool {
	t.Helper()
	dir, err := b.latest()
	if err != nil || dir == "" {
		t.Fatalf("no committed checkpoint: %v", err)
	}
	_, err = os.Stat(filepath.Join(dir, SnapMain+BinaryExt))
	return err == nil
}

// TestChainSegmentsEqualLiveDB checkpoints every round and every
// second round (so a segment can span a site's last observation) and
// requires each committed chain to load as the live database.
func TestChainSegmentsEqualLiveDB(t *testing.T) {
	for _, every := range []int{1, 2} {
		dir := t.TempDir()
		b := NewCheckpointBackend(dir)
		b.Keep = 2
		db := binarySampleDB()
		commits, segments := 0, 0
		for r := 10; r < 30; r++ {
			chainRound(db, r)
			if (r+1)%every != 0 {
				continue
			}
			if err := commit(b, db, r); err != nil {
				t.Fatal(err)
			}
			commits++
			if !newestIsBase(t, b) {
				segments++
			}
			requireLoadsAs(t, dir, db)
		}
		if 2*segments < commits {
			t.Fatalf("every %d: only %d of %d checkpoints were segments", every, segments, commits)
		}
	}
}

// TestChainOlderRoundForcesBase lands history below the mark round
// after a segment — the three ways Merge, MergeShard and an old
// AddDNS can — and requires the next checkpoint to be a base that
// still equals the live database.
func TestChainOlderRoundForcesBase(t *testing.T) {
	cases := map[string]func(t *testing.T, db *DB){
		"add-dns": func(t *testing.T, db *DB) {
			db.AddDNS("penn", DNSRow{Site: 30, Round: 3, HasA: true})
		},
		"merge": func(t *testing.T, db *DB) {
			other := NewDB()
			other.AddDNS("seattle", DNSRow{Site: 33, Round: 2, HasA: true, HasAAAA: true})
			other.AddSample("seattle", 33, topo.V6, Sample{Round: 2, Date: time.Date(2011, 2, 2, 0, 0, 0, 0, time.UTC), PageBytes: 1, Downloads: 3, MeanSpeed: 1})
			db.Merge(other)
		},
		"merge-shard": func(t *testing.T, db *DB) {
			other := NewDB()
			other.Reserve(64, 1<<20, 32)
			other.AddDNS("penn", DNSRow{Site: 50, Round: 2, HasA: true})
			payload, n, err := other.AppendShardSection(nil, ShardDNS, "penn", 48, 64)
			if err != nil || n != 1 {
				t.Fatalf("shard section: n=%d err=%v", n, err)
			}
			if err := db.MergeShard(48, 64, ShardDNS, "penn", payload); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, land := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			b := NewCheckpointBackend(dir)
			db := binarySampleDB()
			for r := 10; r < 12; r++ {
				chainRound(db, r)
				if err := commit(b, db, r); err != nil {
					t.Fatal(err)
				}
			}
			if newestIsBase(t, b) {
				t.Fatal("the second checkpoint is not a segment")
			}
			land(t, db)
			chainRound(db, 12)
			if err := commit(b, db, 12); err != nil {
				t.Fatal(err)
			}
			if !newestIsBase(t, b) {
				t.Fatal("history below the mark round did not force a base")
			}
			requireLoadsAs(t, dir, db)
		})
	}
}

// TestChainSurvivesPruningAndFallsBack: with Keep 1 the newest chain
// loads through its hard links once the base's own directory is gone;
// a chain directory has no whole main.v6db, so a loader that knows
// only whole snapshots and CSV directories reports ErrNoDatabase; and
// once the predecessor directory is removed, the next checkpoint is a
// base.
func TestChainSurvivesPruningAndFallsBack(t *testing.T) {
	dir := t.TempDir()
	b := NewCheckpointBackend(dir)
	b.Keep = 1
	db := binarySampleDB()
	for r := 10; r < 13; r++ {
		chainRound(db, r)
		if err := commit(b, db, r); err != nil {
			t.Fatal(err)
		}
	}
	names, err := b.committed()
	if err != nil || len(names) != 1 || names[0] == "ck-000000" {
		t.Fatalf("committed after pruning: %v err=%v", names, err)
	}
	if newestIsBase(t, b) {
		t.Fatal("newest checkpoint is not a chain")
	}
	requireLoadsAs(t, dir, db)

	ck := filepath.Join(b.root(), names[0])
	if _, err := LoadBinary(filepath.Join(ck, SnapMain+BinaryExt)); !errors.Is(err, ErrNoDatabase) {
		t.Fatalf("whole-snapshot load of a chain directory: %v, want ErrNoDatabase", err)
	}
	if _, err := Load(filepath.Join(ck, SnapMain)); !errors.Is(err, ErrNoDatabase) {
		t.Fatalf("CSV load of a chain directory: %v, want ErrNoDatabase", err)
	}

	if err := os.RemoveAll(ck); err != nil {
		t.Fatal(err)
	}
	chainRound(db, 13)
	if err := commit(b, db, 13); err != nil {
		t.Fatal(err)
	}
	if !newestIsBase(t, b) {
		t.Fatal("a missing predecessor did not force a base")
	}
	requireLoadsAs(t, dir, db)
}

// TestChainMismatchIsCorrupt: a segment applied to a database in any
// state but the one it continues, or a chain with a segment missing,
// fails as a *CorruptSnapshotError.
func TestChainMismatchIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	b := NewCheckpointBackend(dir)
	b.Keep = 0
	db := binarySampleDB()
	for r := 10; r < 13; r++ {
		chainRound(db, r)
		if err := commit(b, db, r); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := b.latest()
	if err != nil {
		t.Fatal(err)
	}
	seg2 := filepath.Join(ck, segName(SnapMain, 2))
	data, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	var ce *CorruptSnapshotError
	if err := applySegment(binarySampleDB(), seg2, data); !errors.As(err, &ce) || ce.Section != "state" {
		t.Fatalf("segment 2 on the wrong base: %v, want a state *CorruptSnapshotError", err)
	}
	if err := os.Remove(filepath.Join(ck, segName(SnapMain, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := b.LoadSnapshot(SnapMain); !errors.As(err, &ce) {
		t.Fatalf("chain missing segment 1: %v, want *CorruptSnapshotError", err)
	}
}
