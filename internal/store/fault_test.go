package store

// Commit-point fault coverage for CheckpointBackend: the PR 8
// corruption suite proved damaged bytes cannot load silently; this
// suite drives the same commit machinery through the fault hook and
// proves a *failed* commit — short write, fsync failure, rename
// failure — never disturbs the previous committed checkpoint, while a
// post-commit crash leaves the new one durable.

import (
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
	if err := b.SaveSnapshot(SnapMain, db); err != nil {
		return err
	}
	return b.SaveMeta(Meta{NextRound: round, Rounds: 9, ConfigHash: "fp"})
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
			loaded, err := b2.LoadSnapshot(SnapMain)
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
	// Fail only the commit-point crash consultation (SaveMeta's, whose
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
	if _, err := b2.LoadSnapshot(SnapMain); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointPruneFaultIsNonFatal(t *testing.T) {
	dir := t.TempDir()
	b := NewCheckpointBackend(dir)
	b.Keep = 1
	b.Hook = failOps("prune")
	db := backendSampleDB()
	for round := 1; round <= 4; round++ {
		if err := commit(b, db, round); err != nil {
			t.Fatalf("round %d: prune fault aborted the commit: %v", round, err)
		}
	}
	names, err := b.committed()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 4 {
		t.Fatalf("blocked pruning retained %d checkpoints, want all 4", len(names))
	}
	if meta, _, _ := b.LoadMeta(); meta.NextRound != 4 {
		t.Fatalf("newest checkpoint lost: %+v", meta)
	}
	// Once pruning works again the backlog drains.
	b.Hook = nil
	if err := commit(b, db, 5); err != nil {
		t.Fatal(err)
	}
	if names, _ = b.committed(); len(names) != 1 {
		t.Fatalf("prune backlog not drained: %v", names)
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
	b.Keep = 2
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
			if _, err := fresh.LoadSnapshot(SnapMain); err != nil {
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
