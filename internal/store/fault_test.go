package store

// Commit-point fault coverage for CheckpointBackend: the PR 8
// corruption suite proved damaged bytes cannot load silently; this
// suite drives the same commit machinery through the fault hook and
// proves a *failed* commit — short write, fsync failure, rename
// failure — never disturbs the previous committed checkpoint, while a
// post-commit crash leaves the new one durable.

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"v6web/internal/fault"
)

var errBoom = errors.New("boom: injected by test")

// failOps returns a hook failing every consultation of the given ops.
func failOps(ops ...string) FaultHook {
	return func(op, path string) error {
		for _, o := range ops {
			if op == o {
				return fmt.Errorf("%w (%s on %s)", errBoom, op, path)
			}
		}
		return nil
	}
}

// commit runs one full checkpoint cycle on b.
func commit(b *CheckpointBackend, db *DB, round int) error {
	return b.Save(db, Meta{NextRound: round, Rounds: 9, ConfigHash: "fp"})
}

func TestCheckpointCommitFaultLeavesPreviousLoadable(t *testing.T) {
	cases := []struct {
		name string
		hook FaultHook
	}{
		{"binary-write", failOps("write")},
		{"binary-sync", failOps("sync")},
		{"binary-rename", failOps("rename")},
		{"meta-sync", func(op, path string) error { // the snapshot's fsync succeeds
			if op == "sync" && filepath.Base(path) == metaFile {
				return fmt.Errorf("%w (%s on %s)", errBoom, op, path)
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			b := NewCheckpointBackend(dir)
			db1 := backendSampleDB()
			if err := commit(b, db1, 1); err != nil {
				t.Fatal(err)
			}

			db2 := backendSampleDB()
			db2.AddDNS("penn", DNSRow{Site: 2, Round: 1, HasA: true})
			b.Hook = tc.hook
			if err := commit(b, db2, 2); !errors.Is(err, errBoom) {
				t.Fatalf("faulted commit returned %v, want injected failure", err)
			}

			// A fresh backend (the resuming process) must see checkpoint 1
			// exactly as committed.
			b2 := NewCheckpointBackend(dir)
			meta, ok, err := b2.LoadMeta()
			if err != nil || !ok || meta.NextRound != 1 {
				t.Fatalf("after faulted commit: meta=%+v ok=%v err=%v", meta, ok, err)
			}
			loaded, err := b2.Load()
			if err != nil {
				t.Fatalf("previous checkpoint unloadable: %v", err)
			}
			s1, d1, sa1, p1 := db1.Counts()
			s2, d2, sa2, p2 := loaded.Counts()
			if s1 != s2 || d1 != d2 || sa1 != sa2 || p1 != p2 {
				t.Fatalf("previous checkpoint drifted: (%d %d %d %d) vs (%d %d %d %d)",
					s1, d1, sa1, p1, s2, d2, sa2, p2)
			}

			// With the fault cleared the next cycle commits normally.
			if err := commit(b2, db2, 2); err != nil {
				t.Fatal(err)
			}
			if meta, _, _ := b2.LoadMeta(); meta.NextRound != 2 {
				t.Fatalf("post-fault commit not latest: %+v", meta)
			}
		})
	}
}

func TestCheckpointCrashAfterCommitIsDurable(t *testing.T) {
	dir := t.TempDir()
	b := NewCheckpointBackend(dir)
	if err := commit(b, backendSampleDB(), 1); err != nil {
		t.Fatal(err)
	}
	// Fail only the commit-point crash consultation (the one whose
	// path is the final ck- directory) — a "crash" while staging the
	// snapshot would abort the cycle before the commit rename, which
	// the previous test already covers.
	b.Hook = func(op, path string) error {
		if op == "crash" && strings.Contains(path, "ck-") {
			return fmt.Errorf("%w (%s on %s)", errBoom, op, path)
		}
		return nil
	}
	if err := commit(b, backendSampleDB(), 2); !errors.Is(err, errBoom) {
		t.Fatalf("crash-after-commit cycle returned %v", err)
	}
	// The caller heard failure, but the rename landed: a resuming
	// process finds round 2, not round 1.
	b2 := NewCheckpointBackend(dir)
	meta, ok, err := b2.LoadMeta()
	if err != nil || !ok || meta.NextRound != 2 {
		t.Fatalf("post-crash meta: %+v ok=%v err=%v", meta, ok, err)
	}
	if _, err := b2.Load(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointPruneFaultIsNonFatal(t *testing.T) {
	dir := t.TempDir()
	b := NewCheckpointBackend(dir)
	b.Hook = failOps("prune")
	db := backendSampleDB()
	for round := 1; round <= 6; round++ {
		if err := commit(b, db, round); err != nil {
			t.Fatalf("round %d: prune fault aborted the commit: %v", round, err)
		}
	}
	names, err := b.committed()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6 {
		t.Fatalf("blocked pruning retained %d checkpoints, want all 6", len(names))
	}
	if meta, _, _ := b.LoadMeta(); meta.NextRound != 6 {
		t.Fatalf("newest checkpoint lost: %+v", meta)
	}
	// Once pruning works again the backlog drains to the newest three.
	b.Hook = nil
	if err := commit(b, db, 7); err != nil {
		t.Fatal(err)
	}
	if names, _ = b.committed(); len(names) != 3 || names[0] != "ck-000004" {
		t.Fatalf("prune backlog not drained to the newest three: %v", names)
	}
}

// TestCheckpointBackendUnderInjectedFaults drives many checkpoint
// cycles through the deterministic injector at high fault rates and
// checks the durability invariant after every cycle: the newest
// committed checkpoint always loads, and its round cursor is at least
// the last acknowledged commit (crash-after-commit may push it one
// ahead of what the caller heard).
func TestCheckpointBackendUnderInjectedFaults(t *testing.T) {
	in := fault.New(fault.Config{
		Seed: 1,
		FS: fault.FSPlan{WriteFail: 0.2, SyncFail: 0.2, RenameFail: 0.2,
			CrashAfterCommit: 0.2, PruneFail: 0.2},
	}, "fp")
	dir := t.TempDir()
	b := NewCheckpointBackend(dir)
	b.Hook = FaultHook(in.FSHook(0))

	db := backendSampleDB()
	acked, faults := 0, 0
	for round := 1; round <= 40; round++ {
		db.AddDNS("penn", DNSRow{Site: 2, Round: round, HasA: true})
		err := commit(b, db, round)
		switch {
		case err == nil:
			acked = round
		case errors.Is(err, fault.ErrInjected):
			faults++
		default:
			t.Fatalf("round %d: non-injected failure: %v", round, err)
		}
		fresh := NewCheckpointBackend(dir)
		meta, ok, err := fresh.LoadMeta()
		if acked > 0 {
			if err != nil || !ok {
				t.Fatalf("round %d: committed state unreadable: ok=%v err=%v", round, ok, err)
			}
			if meta.NextRound < acked {
				t.Fatalf("round %d: committed cursor %d behind acknowledged %d",
					round, meta.NextRound, acked)
			}
			if _, err := fresh.Load(); err != nil {
				t.Fatalf("round %d: committed snapshot unloadable: %v", round, err)
			}
		}
	}
	if faults == 0 {
		t.Fatal("aggressive schedule injected nothing in 40 cycles")
	}
	if acked == 0 {
		t.Fatal("no cycle ever succeeded under a p=0.2 schedule")
	}
}

// TestSegmentCycleFaultKeepsPreviousChain fires each commit-point
// fault during a segment cycle: the previous chain still loads as
// committed (or, for a crash after the commit, the new one does), and
// the next successful checkpoint carries every change since the last
// commit.
func TestSegmentCycleFaultKeepsPreviousChain(t *testing.T) {
	cases := []struct {
		name string
		hook FaultHook
	}{
		{"segment-write", failOps("write")},
		{"segment-sync", failOps("sync")},
		{"segment-rename", failOps("rename")},
		{"meta-sync", func(op, path string) error {
			if op == "sync" && filepath.Base(path) == metaFile {
				return fmt.Errorf("%w (%s on %s)", errBoom, op, path)
			}
			return nil
		}},
		{"segment-crash", failOps("crash")},
		{"crash-after-commit", func(op, path string) error {
			if op == "crash" && strings.Contains(path, "ck-") {
				return fmt.Errorf("%w (%s on %s)", errBoom, op, path)
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			b := NewCheckpointBackend(dir)
			db := binarySampleDB()
			committed := map[int][]byte{}
			for r := 10; r < 12; r++ {
				chainRound(db, r)
				if err := commit(b, db, r); err != nil {
					t.Fatal(err)
				}
				committed[r] = snapshotBytes(t, db)
			}
			if newestIsBase(t, b) {
				t.Fatal("the cycle before the fault did not write a segment")
			}

			chainRound(db, 12)
			committed[12] = snapshotBytes(t, db)
			b.Hook = tc.hook
			if err := commit(b, db, 12); !errors.Is(err, errBoom) {
				t.Fatalf("faulted segment cycle returned %v, want the injected failure", err)
			}
			loaded, meta := loadNewest(t, dir)
			want, ok := committed[meta.NextRound]
			if !ok || (tc.name != "crash-after-commit" && meta.NextRound != 11) {
				t.Fatalf("after the fault the newest checkpoint is round %d", meta.NextRound)
			}
			if !bytes.Equal(snapshotBytes(t, loaded), want) {
				t.Fatalf("checkpoint of round %d does not load as committed", meta.NextRound)
			}

			b.Hook = nil
			chainRound(db, 13)
			if err := commit(b, db, 13); err != nil {
				t.Fatal(err)
			}
			requireLoadsAs(t, dir, db)
		})
	}
}

// TestCheckpointHookSequence pins where a checkpoint cycle consults
// the fault hook, in order, for one base cycle and two segment cycles
// over a log that already holds two checkpoints: the staged file's
// write, sync, rename and post-rename crash points, the metadata's
// write and sync, the commit rename and crash, then one prune per
// checkpoint beyond the newest three. A deterministic fault schedule
// draws at these points, so moving one moves every chaos run.
func TestCheckpointHookSequence(t *testing.T) {
	dir := t.TempDir()
	db := binarySampleDB()
	old := NewCheckpointBackend(dir)
	for r := 10; r < 12; r++ {
		chainRound(db, r)
		if err := commit(old, db, r); err != nil {
			t.Fatal(err)
		}
	}
	root := filepath.Join(dir, "checkpoints")
	var got []string
	b := NewCheckpointBackend(dir)
	b.Hook = func(op, path string) error {
		rel, err := filepath.Rel(root, path)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, op+" "+rel)
		return nil
	}
	for r := 12; r < 15; r++ {
		chainRound(db, r)
		if err := commit(b, db, r); err != nil {
			t.Fatal(err)
		}
	}
	cycle := func(file, ck string, prune ...string) []string {
		staged := filepath.Join(stagingName, file)
		meta := filepath.Join(stagingName, metaFile)
		seq := []string{
			"write " + staged + ".tmp", "sync " + staged + ".tmp", "rename " + staged, "crash " + staged,
			"write " + meta, "sync " + meta,
			"rename " + ck, "crash " + ck,
		}
		for _, p := range prune {
			seq = append(seq, "prune "+p)
		}
		return seq
	}
	var want []string
	want = append(want, cycle(SnapMain+BinaryExt, "ck-000002")...)
	want = append(want, cycle(segName(SnapMain, 1), "ck-000003", "ck-000000")...)
	want = append(want, cycle(segName(SnapMain, 2), "ck-000004", "ck-000001")...)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("hook sequence:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	requireLoadsAs(t, dir, db)
}
