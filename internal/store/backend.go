package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Snapshot names used by the campaign runner: the main weekly study
// and the World IPv6 Day side experiment.
const (
	SnapMain  = "main"
	SnapV6Day = "v6day"
)

// Meta is the round-cursor metadata persisted next to snapshots. It
// is what lets a killed campaign resume: NextRound is the first round
// NOT yet reflected in the saved snapshots, and ConfigHash guards
// against resuming under a different configuration.
type Meta struct {
	NextRound  int       `json:"next_round"`
	Rounds     int       `json:"rounds"`
	ConfigHash string    `json:"config_hash"`
	Complete   bool      `json:"complete"`
	SavedAt    time.Time `json:"saved_at"`
}

// Backend abstracts where campaign snapshots and their round-cursor
// metadata live. The campaign runner writes a checkpoint as one or
// more SaveSnapshot calls followed by exactly one SaveMeta call;
// SaveMeta is the commit point, and backends may stage snapshots
// until it lands. LoadMeta reports ok=false when the backend holds no
// committed checkpoint at all.
type Backend interface {
	SaveSnapshot(name string, db *DB) error
	LoadSnapshot(name string) (*DB, error)
	SaveMeta(m Meta) error
	LoadMeta() (Meta, bool, error)
}

// FaultHook, when non-nil, is consulted at a backend's
// durability-critical I/O points and may return an error to simulate
// the operation failing there. internal/fault supplies deterministic
// implementations; production runs leave hooks nil, and every call
// site is behind a nil check so the disabled path costs one branch.
//
// Ops, in the order a checkpoint cycle consults them:
//
//	"write"  a staged snapshot or metadata write, mid-stream (models
//	         a short write / ENOSPC; nothing was committed)
//	"sync"   a pre-commit fsync: the staged snapshot's, then the
//	         metadata's
//	"rename" the atomic commit rename itself
//	"crash"  fires after the commit landed: the state IS durable, but
//	         the caller is told it failed, as if the process died
//	         between rename and acknowledgment
//	"prune"  checkpoint pruning (non-fatal by contract)
type FaultHook func(op, path string) error

const metaFile = "meta.json"

// WriteMeta durably replaces dir/meta.json (see WriteFileDurable).
func WriteMeta(dir string, m Meta) error { return writeMeta(dir, m, nil) }

// writeMeta is WriteMeta with the fault hook consulted at the fsync.
func writeMeta(dir string, m Meta, hook FaultHook) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileDurable(filepath.Join(dir, metaFile), append(data, '\n'), hook)
}

// WriteFileDurable replaces path with data so that a returned nil
// survives power loss: the bytes are staged in path+".tmp", fsynced
// and renamed into place, and the directory is fsynced. A crash at any
// point leaves the old file or the new one, never a torn one.
func WriteFileDurable(path string, data []byte) error { return writeFileDurable(path, data, nil) }

// writeFileDurable is WriteFileDurable with hook, when set, consulted
// ("sync") just before the staged file's fsync.
func writeFileDurable(path string, data []byte, hook FaultHook) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && hook != nil {
		err = hook("sync", path)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// ReadMeta reads dir/meta.json; ok=false when it does not exist.
func ReadMeta(dir string) (Meta, bool, error) {
	path := filepath.Join(dir, metaFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Meta{}, false, nil
	}
	if err != nil {
		return Meta{}, false, err
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		return Meta{}, false, fmt.Errorf("store: %s: %w", path, err)
	}
	return m, true, nil
}

// loadSnapshotAuto loads base from a committed checkpoint: its chain
// (a base plus segments, see chain.go) when present, else the whole
// binary snapshot, ErrNoDatabase when that is missing too. A
// checkpoint in a format this build does not write — a CSV directory,
// a segment an earlier build wrote — does not load; its campaign is
// rerun.
func loadSnapshotAuto(base string) (*DB, error) {
	if _, err := os.Stat(base + chainBaseSuffix); err == nil {
		return loadChain(base)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	return Load(base)
}

// CheckpointBackend stores each committed checkpoint as its own
// immutable directory under Dir/checkpoints — an append-only log of
// campaign states. A checkpoint is staged in a hidden directory and
// atomically renamed into place when SaveMeta commits it, so a crash
// at any point (including mid-checkpoint) never corrupts the last
// committed state. LoadMeta/LoadSnapshot always serve the newest
// committed checkpoint.
//
// A checkpoint stores each snapshot either whole, as name.v6db (a
// base, SaveBinary's bytes), or as a chain: the last base as
// name.base.v6db plus segments name.seg-NNNNNN.v6seg, each holding
// what changed since the checkpoint before (chain.go). The chain's
// older files are hard links to the previous checkpoint's, so every
// committed directory loads on its own and pruning never breaks one.
// A base is written on the first save, for a database the backend's
// last commit did not save (a resumed one, say), after Acquire or a
// failed cycle, when a hard link fails, when the database took an
// append below its mark round, and once a chain's segments outweigh
// its base in stored bytes.
type CheckpointBackend struct {
	Dir  string // campaign root; checkpoints live under Dir/checkpoints
	Keep int    // committed checkpoints to retain after a commit; <=0 keeps all

	// Fingerprint, when set, is stamped into the snapshot headers.
	Fingerprint string
	// Hook, when set, injects failures at the commit points (fault
	// testing only; see FaultHook).
	Hook FaultHook

	mu        sync.Mutex
	pending   string // staging directory of the in-progress checkpoint
	scanned   bool
	nextSeq   int
	writerGen uint64 // bumped by Acquire; fences stale CheckpointWriters
	// chains holds, per snapshot name, the newest committed save;
	// staged the saves of the in-progress checkpoint.
	chains map[string]*chain
	staged map[string]*chain
}

// NewCheckpointBackend returns a backend rooted at dir, retaining the
// three newest checkpoints.
func NewCheckpointBackend(dir string) *CheckpointBackend {
	return &CheckpointBackend{Dir: dir, Keep: 3}
}

func (b *CheckpointBackend) root() string { return filepath.Join(b.Dir, "checkpoints") }

const stagingName = ".staging"

// committed returns the sequence-sorted names of committed
// checkpoints (directories named ck-NNNNNN holding a meta.json).
func (b *CheckpointBackend) committed() ([]string, error) {
	entries, err := os.ReadDir(b.root())
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		var seq int
		if !e.IsDir() || len(e.Name()) != 9 {
			continue
		}
		if _, err := fmt.Sscanf(e.Name(), "ck-%06d", &seq); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(b.root(), e.Name(), metaFile)); err != nil {
			continue
		}
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out, nil
}

// stage returns the staging directory, creating it (and discarding
// any leftovers from a crashed checkpoint) at the start of a cycle.
func (b *CheckpointBackend) stage() (string, error) {
	if b.pending != "" {
		return b.pending, nil
	}
	dir := filepath.Join(b.root(), stagingName)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b.pending = dir
	return dir, nil
}

// SaveSnapshot stages db under the in-progress checkpoint as a
// binary snapshot, name.v6db.
func (b *CheckpointBackend) SaveSnapshot(name string, db *DB) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.saveSnapshotLocked(name, db)
}

func (b *CheckpointBackend) saveSnapshotLocked(name string, db *DB) error {
	dir, err := b.stage()
	if err != nil {
		return err
	}
	c, err := b.saveChained(dir, name, db)
	if err != nil {
		b.discard()
		return err
	}
	if b.staged == nil {
		b.staged = make(map[string]*chain)
	}
	b.staged[name] = c
	return nil
}

// discard drops the in-progress checkpoint and what the backend knows
// of committed chains: the next cycle restages from scratch and
// writes bases.
func (b *CheckpointBackend) discard() {
	b.pending = ""
	b.chains, b.staged = nil, nil
}

// SaveMeta commits the staged checkpoint: the metadata is written
// and fsynced into the staging directory, which is then atomically
// renamed to its sequence-numbered final name, and the rename is
// fsynced. Older checkpoints beyond Keep are pruned afterwards.
func (b *CheckpointBackend) SaveMeta(m Meta) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.saveMetaLocked(m)
}

func (b *CheckpointBackend) saveMetaLocked(m Meta) error {
	if err := b.commitLocked(m); err != nil {
		b.discard()
		return err
	}
	return nil
}

func (b *CheckpointBackend) commitLocked(m Meta) error {
	dir, err := b.stage()
	if err != nil {
		return err
	}
	if b.Hook != nil {
		if err := b.Hook("write", filepath.Join(dir, metaFile)); err != nil {
			return err
		}
	}
	if err := writeMeta(dir, m, b.Hook); err != nil {
		return err
	}
	if !b.scanned {
		names, err := b.committed()
		if err != nil {
			return err
		}
		for _, n := range names {
			var seq int
			fmt.Sscanf(n, "ck-%06d", &seq)
			if seq >= b.nextSeq {
				b.nextSeq = seq + 1
			}
		}
		b.scanned = true
	}
	final := filepath.Join(b.root(), fmt.Sprintf("ck-%06d", b.nextSeq))
	if b.Hook != nil {
		if err := b.Hook("rename", final); err != nil {
			return err
		}
	}
	if err := os.Rename(dir, final); err != nil {
		return err
	}
	b.nextSeq++
	b.pending = ""
	for _, c := range b.staged {
		c.dir = final
	}
	b.chains, b.staged = b.staged, nil
	if err := syncDir(b.root()); err != nil {
		return err
	}
	if b.Hook != nil {
		// "crash" fires after the commit landed: the new checkpoint is
		// the one LoadMeta now serves, but the caller hears failure — a
		// process that died between rename and acknowledgment.
		if err := b.Hook("crash", final); err != nil {
			return err
		}
	}
	// The rename above was the commit point: the checkpoint is durable
	// regardless of what follows. Pruning obsolete checkpoints is
	// housekeeping — a failure here (a held-open file, a permission
	// oddity on an old directory) must not abort the campaign, so it
	// is reported on stderr and otherwise ignored; the stale directory
	// is retried on the next checkpoint.
	if b.Keep > 0 {
		names, err := b.committed()
		if err != nil {
			fmt.Fprintf(os.Stderr, "store: checkpoint prune: %v\n", err)
			return nil
		}
		for len(names) > b.Keep {
			victim := filepath.Join(b.root(), names[0])
			if b.Hook != nil {
				if err := b.Hook("prune", victim); err != nil {
					fmt.Fprintf(os.Stderr, "store: checkpoint prune: %v\n", err)
					break
				}
			}
			if err := os.RemoveAll(victim); err != nil {
				fmt.Fprintf(os.Stderr, "store: checkpoint prune: %v\n", err)
				break
			}
			names = names[1:]
		}
	}
	return nil
}

// latest returns the newest committed checkpoint directory, or "".
func (b *CheckpointBackend) latest() (string, error) {
	names, err := b.committed()
	if err != nil || len(names) == 0 {
		return "", err
	}
	return filepath.Join(b.root(), names[len(names)-1]), nil
}

// LoadMeta reads the newest committed checkpoint's metadata.
func (b *CheckpointBackend) LoadMeta() (Meta, bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	dir, err := b.latest()
	if err != nil || dir == "" {
		return Meta{}, false, err
	}
	return ReadMeta(dir)
}

// LoadSnapshot reads a snapshot from the newest committed checkpoint
// (see loadSnapshotAuto).
func (b *CheckpointBackend) LoadSnapshot(name string) (*DB, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	dir, err := b.latest()
	if err != nil {
		return nil, err
	}
	if dir == "" {
		return nil, fmt.Errorf("store: %w: no committed checkpoint under %s", ErrNoDatabase, b.root())
	}
	return loadSnapshotAuto(filepath.Join(dir, name))
}

// ErrStaleWriter is returned by a CheckpointWriter whose backend has
// since been acquired by a newer writer: the holder must stop
// checkpointing — a newer attempt owns the log now.
var ErrStaleWriter = errors.New("store: stale checkpoint writer: a newer writer owns the checkpoint log")

// CheckpointWriter is a fenced write handle on a CheckpointBackend —
// see Acquire.
type CheckpointWriter struct {
	b   *CheckpointBackend
	gen uint64
}

// Acquire returns a write handle bound to the backend and revokes
// every handle returned earlier: a write through a stale handle fails
// with ErrStaleWriter, and the check happens under the backend lock,
// atomically with the write it gates — a revoked writer can never
// touch the staging area or the committed sequence again, not even in
// a race. Any checkpoint a revoked writer left half-staged is
// discarded, so the new holder always stages from scratch. This is
// what lets a supervisor abandon a wedged attempt and start a
// replacement against the same checkpoint log without the two writers
// interleaving staged snapshots or colliding on sequence numbers.
// Loads are not fenced: a stale holder reading the newest committed
// checkpoint is harmless.
func (b *CheckpointBackend) Acquire() *CheckpointWriter {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.writerGen++
	b.discard() // stage() restages, discarding a revoked writer's leftovers
	return &CheckpointWriter{b: b, gen: b.writerGen}
}

// SaveSnapshot stages db through the handle; ErrStaleWriter once a
// newer writer has acquired the backend.
func (w *CheckpointWriter) SaveSnapshot(name string, db *DB) error {
	w.b.mu.Lock()
	defer w.b.mu.Unlock()
	if w.gen != w.b.writerGen {
		return ErrStaleWriter
	}
	return w.b.saveSnapshotLocked(name, db)
}

// SaveMeta commits the staged checkpoint through the handle;
// ErrStaleWriter once a newer writer has acquired the backend.
func (w *CheckpointWriter) SaveMeta(m Meta) error {
	w.b.mu.Lock()
	defer w.b.mu.Unlock()
	if w.gen != w.b.writerGen {
		return ErrStaleWriter
	}
	return w.b.saveMetaLocked(m)
}

// LoadMeta reads the newest committed checkpoint's metadata.
func (w *CheckpointWriter) LoadMeta() (Meta, bool, error) { return w.b.LoadMeta() }

// LoadSnapshot reads a snapshot from the newest committed checkpoint.
func (w *CheckpointWriter) LoadSnapshot(name string) (*DB, error) { return w.b.LoadSnapshot(name) }
