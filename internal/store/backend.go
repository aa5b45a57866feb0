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

// Snapshot names: the main weekly study and the World IPv6 Day side
// experiment, the base names of a finished campaign's two files. A
// checkpoint holds the main database only.
const (
	SnapMain  = "main"
	SnapV6Day = "v6day"
)

// Meta is the round-cursor metadata saved with each checkpoint. It
// is what lets a killed campaign resume: NextRound is the first round
// NOT yet reflected in the saved database, and ConfigHash guards
// against resuming under a different configuration.
type Meta struct {
	NextRound  int       `json:"next_round"`
	Rounds     int       `json:"rounds"`
	ConfigHash string    `json:"config_hash"`
	Complete   bool      `json:"complete"`
	SavedAt    time.Time `json:"saved_at"`
}

// Backend abstracts where a campaign's checkpoints live. Save commits
// the main measurement database and its round-cursor metadata as one
// checkpoint; LoadMeta and Load read the newest committed one, and
// LoadMeta reports ok=false when the backend holds none at all.
type Backend interface {
	Save(db *DB, m Meta) error
	LoadMeta() (Meta, bool, error)
	Load() (*DB, error)
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

// CheckpointBackend stores each committed checkpoint as its own
// immutable directory under Dir/checkpoints — an append-only log of
// campaign states. Save stages a checkpoint in a hidden directory and
// atomically renames it into place, so a crash at any point (including
// mid-checkpoint) never corrupts the last committed state.
// LoadMeta/Load always serve the newest committed checkpoint, and a
// commit prunes all but the newest keepCheckpoints.
//
// A checkpoint stores the main database either whole, as main.v6db (a
// base, SaveBinary's bytes), or as a chain: the last base as
// main.base.v6db plus segments main.seg-NNNNNN.v6seg, each holding
// what changed since the checkpoint before (chain.go). The chain's
// older files are hard links to the previous checkpoint's, so every
// committed directory loads on its own and pruning never breaks one.
// A base is written on the first save, for a database the backend's
// last commit did not save (a resumed one, say), after Acquire or a
// failed save, when a hard link fails, when the database took an
// append below its mark round, and once a chain's segments outweigh
// its base in stored bytes.
type CheckpointBackend struct {
	Dir string // campaign root; checkpoints live under Dir/checkpoints

	// Fingerprint, when set, is stamped into the snapshot headers.
	Fingerprint string
	// Hook, when set, injects failures at the commit points (fault
	// testing only; see FaultHook).
	Hook FaultHook

	mu        sync.Mutex
	writerGen uint64 // bumped by Acquire; fences stale CheckpointWriters
	// last is the newest committed save; nil before the first, after
	// a failed save and after Acquire, so that the next save is a base.
	last *chain
}

// keepCheckpoints is how many committed checkpoints a commit retains.
const keepCheckpoints = 3

// NewCheckpointBackend returns a backend rooted at dir.
func NewCheckpointBackend(dir string) *CheckpointBackend {
	return &CheckpointBackend{Dir: dir}
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

// Save commits db and m as the next checkpoint: it clears the staging
// directory, writes db into it as a base or a segment (saveChained) and
// then the metadata, fsynced, renames it to its sequence-numbered name,
// fsyncs the rename and prunes. A failed Save leaves the committed log
// intact (or, failing after the rename, committed) and makes the next
// Save a base.
func (b *CheckpointBackend) Save(db *DB, m Meta) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.saveLocked(db, m)
}

func (b *CheckpointBackend) saveLocked(db *DB, m Meta) error {
	c, err := b.commit(db, m)
	if b.last = c; err == nil {
		b.prune()
	}
	return err
}

// commit stages and commits one checkpoint, returning what it saved;
// a nil chain with the error on failure.
func (b *CheckpointBackend) commit(db *DB, m Meta) (*chain, error) {
	dir := filepath.Join(b.root(), stagingName)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c, err := b.saveChained(dir, db)
	if err != nil {
		return nil, err
	}
	if b.Hook != nil {
		if err := b.Hook("write", filepath.Join(dir, metaFile)); err != nil {
			return nil, err
		}
	}
	if err := writeMeta(dir, m, b.Hook); err != nil {
		return nil, err
	}
	names, err := b.committed()
	if err != nil {
		return nil, err
	}
	seq := 0
	if len(names) > 0 {
		fmt.Sscanf(names[len(names)-1], "ck-%06d", &seq)
		seq++
	}
	final := filepath.Join(b.root(), fmt.Sprintf("ck-%06d", seq))
	if b.Hook != nil {
		if err := b.Hook("rename", final); err != nil {
			return nil, err
		}
	}
	if err := os.Rename(dir, final); err != nil {
		return nil, err
	}
	c.dir = final
	if err := syncDir(b.root()); err != nil {
		return nil, err
	}
	if b.Hook != nil {
		// "crash" fires after the commit landed: the new checkpoint is
		// the one LoadMeta now serves, but the caller hears failure — a
		// process that died between rename and acknowledgment.
		if err := b.Hook("crash", final); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// prune removes the committed checkpoints older than the newest
// keepCheckpoints. The commit rename was the commit point: the
// checkpoint is durable regardless of what follows. Pruning obsolete
// checkpoints is housekeeping — a failure here (a held-open file, a
// permission oddity on an old directory) must not abort the campaign,
// so it is reported on stderr and otherwise ignored; the stale
// directory is retried on the next checkpoint.
func (b *CheckpointBackend) prune() {
	names, err := b.committed()
	if err != nil {
		fmt.Fprintf(os.Stderr, "store: checkpoint prune: %v\n", err)
		return
	}
	for len(names) > keepCheckpoints {
		victim := filepath.Join(b.root(), names[0])
		if b.Hook != nil {
			if err := b.Hook("prune", victim); err != nil {
				fmt.Fprintf(os.Stderr, "store: checkpoint prune: %v\n", err)
				return
			}
		}
		if err := os.RemoveAll(victim); err != nil {
			fmt.Fprintf(os.Stderr, "store: checkpoint prune: %v\n", err)
			return
		}
		names = names[1:]
	}
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

// Load reads the newest committed checkpoint's database: its chain (a
// base plus segments, see chain.go) when present, else the whole
// snapshot; ErrNoDatabase when there is none. A checkpoint in a format
// this build does not write does not load; its campaign is rerun.
func (b *CheckpointBackend) Load() (*DB, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	dir, err := b.latest()
	if err != nil {
		return nil, err
	}
	if dir == "" {
		return nil, fmt.Errorf("store: %w: no committed checkpoint under %s", ErrNoDatabase, b.root())
	}
	base := filepath.Join(dir, SnapMain)
	if _, err := os.Stat(base + chainBaseSuffix); err == nil {
		return loadChain(base)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	return Load(base)
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
// every handle returned earlier: a Save through a stale handle fails
// with ErrStaleWriter, and the check happens under the backend lock,
// atomically with the whole save it gates — a revoked writer can never
// touch the staging area or the committed sequence again, not even in
// a race, and Acquire itself waits for a save in flight. The new
// holder's first save is a base. This is what lets a supervisor
// abandon a wedged attempt and start a replacement against the same
// checkpoint log without the two writers interleaving their saves or
// colliding on sequence numbers. Loads are not fenced: a stale holder
// reading the newest committed checkpoint is harmless.
func (b *CheckpointBackend) Acquire() *CheckpointWriter {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.writerGen++
	b.last = nil
	return &CheckpointWriter{b: b, gen: b.writerGen}
}

// Save commits a checkpoint through the handle (see
// CheckpointBackend.Save); ErrStaleWriter once a newer writer has
// acquired the backend.
func (w *CheckpointWriter) Save(db *DB, m Meta) error {
	w.b.mu.Lock()
	defer w.b.mu.Unlock()
	if w.gen != w.b.writerGen {
		return ErrStaleWriter
	}
	return w.b.saveLocked(db, m)
}

// LoadMeta reads the newest committed checkpoint's metadata.
func (w *CheckpointWriter) LoadMeta() (Meta, bool, error) { return w.b.LoadMeta() }

// Load reads the newest committed checkpoint's database.
func (w *CheckpointWriter) Load() (*DB, error) { return w.b.Load() }
