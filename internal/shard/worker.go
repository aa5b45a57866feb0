package shard

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"v6web/internal/alexa"
	"v6web/internal/core"
	"v6web/internal/fault"
	"v6web/internal/store"
)

// WorkerEnv marks a process as a shard worker. The coordinator re-execs
// the current binary with this set; MaybeWorker at the top of main (and
// of TestMain in packages whose tests spawn workers) diverts such a
// process into the worker loop before any flag parsing runs.
const WorkerEnv = "V6WEB_SHARD_WORKER"

// MaybeWorker turns the process into a shard worker when WorkerEnv is
// set: it serves one spec over stdin/stdout and exits. Call it first
// thing in main; it returns immediately in ordinary processes.
func MaybeWorker() {
	if os.Getenv(WorkerEnv) == "" {
		return
	}
	if err := Serve(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "shard worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// ServeAddrRetry dials a coordinator running with Options.Listen and
// serves shards until the coordinator goes away; each connection
// carries one spec. A connection that closes without delivering a spec
// (or mid-handshake) means the coordinator is done with us. The first
// connection retries failed dials under p (up to MaxAttempts dials,
// each bounded by Timeout), so a worker started moments before its
// coordinator listens still joins. Once a shard has been served, a
// failed dial means the coordinator finished and went away, and the
// worker exits cleanly without burning the backoff.
func ServeAddrRetry(addr string, p fault.RetryPolicy) error {
	p = p.WithDefaults()
	served := 0
	for {
		c, err := dialCoordinator(addr, p, served > 0)
		if err != nil {
			if served > 0 {
				return nil // coordinator finished and went away
			}
			return err
		}
		err = Serve(c, c)
		c.Close()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
				errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET) {
				return nil
			}
			return err
		}
		served++
	}
}

// dialCoordinator dials under p. After the worker has served at least
// one shard a refused dial is the normal end of the campaign, so only
// the first connection is retried.
func dialCoordinator(addr string, p fault.RetryPolicy, servedBefore bool) (net.Conn, error) {
	var c net.Conn
	err := p.Supervise(context.Background(), func(*fault.Attempt) error {
		var err error
		if c, err = net.DialTimeout("tcp", addr, p.Timeout); err != nil && servedBefore {
			return fault.Permanent(err)
		}
		return err
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("shard: dialing coordinator %s (%d attempts): %w", addr, p.MaxAttempts, err)
	}
	return c, nil
}

// Serve runs one shard: it reads the spec handshake from in, runs the
// spec's site range through the round machinery, and streams heartbeat
// and result frames to out. SIGINT/SIGTERM between rounds checkpoints
// and exits cleanly; a later worker for the same spec resumes there.
func Serve(in io.Reader, out io.Writer) error {
	spec, err := readSpec(in)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bw := bufio.NewWriterSize(out, 1<<16)
	emit := func(typ byte, payload []byte) error {
		if err := writeFrame(bw, typ, payload); err != nil {
			return err
		}
		return bw.Flush()
	}
	if err := runSpec(ctx, spec, emit); err != nil {
		// Best effort: tell the coordinator why before exiting non-zero.
		if werr := writeFrame(bw, frameError, []byte(err.Error())); werr == nil {
			bw.Flush()
		}
		return err
	}
	return nil
}

func runSpec(ctx context.Context, spec Spec, emit func(typ byte, payload []byte) error) error {
	cfg := spec.Config
	if cfg.Vantages == nil {
		cfg.Vantages = core.DefaultVantages()
	}
	if got := cfg.Fingerprint(); got != spec.Fingerprint {
		return fmt.Errorf("shard %d: config fingerprint %s does not match spec %s", spec.Index, got, spec.Fingerprint)
	}
	if err := emit(frameHello, encodeHello(spec.Index, spec.Fingerprint)); err != nil {
		return err
	}
	// The worker-side fault plan, when the coordinator armed one for
	// this attempt: filesystem faults at the checkpoint commit points
	// and duplicated round frames. A nil injector draws nothing.
	var inj *fault.Injector
	if spec.Faults != nil {
		inj = fault.New(*spec.Faults, spec.Fingerprint)
	}

	var (
		s     *core.Scenario
		dests = newDestLog()
		opts  []core.RunOption
	)
	if spec.CheckpointDir != "" {
		backend := checkpointBackend(spec, inj)
		if rs, rd := loadCheckpoint(cfg, spec, backend); rs != nil {
			s, dests = rs, rd
		}
		opts = append(opts, core.WithBackend(shardBackend{backend, dests, spec}),
			core.WithCheckpoint(spec.CheckpointEvery))
	}
	if s == nil {
		var err error
		if s, err = core.NewScenario(cfg); err != nil {
			return err
		}
	}
	s.Restrict(spec.siteRange())
	if len(spec.Vantages) > 0 {
		names := make([]store.Vantage, len(spec.Vantages))
		for i, v := range spec.Vantages {
			names[i] = store.Vantage(v)
		}
		s.RestrictVantages(names)
	}
	s.SetDestSink(dests.record)

	// Each round boundary sends the round's progress frame before the
	// round's checkpoint: a worker whose coordinator went away stops
	// without committing the round. An armed fault plan may send it
	// twice; round frames are progress reporting, so the coordinator
	// must tolerate a duplicate without double-counting anything.
	var sites, dual, measured int
	opts = append(opts, core.WithObserver(func(ev core.RoundEvent) {
		sites += ev.Stats.Sites
		dual += ev.Stats.Dual
		measured += ev.Stats.Measured
	}), core.WithRoundHook(func(done int, _ func() error) error {
		frame := encodeRound(done-1, sites, dual, measured)
		sites, dual, measured = 0, 0, 0
		if err := emit(frameRound, frame); err != nil {
			return err
		}
		if inj.DupRound(spec.Index, spec.FaultAttempt, done-1) {
			return emit(frameRound, frame)
		}
		return nil
	}))
	if err := s.RunContext(ctx, opts...); err != nil {
		if errors.Is(err, context.Canceled) {
			return fmt.Errorf("shard %d: interrupted at round %d (checkpointed)", spec.Index, s.RoundsDone())
		}
		return err
	}
	if err := sendSections(s.DB, spec, emit); err != nil {
		return err
	}
	if err := dests.send(emit); err != nil {
		return err
	}
	return emit(frameDone, nil)
}

// shardBackend is a worker's checkpoint backend: the shard's
// CheckpointBackend, with the dests sidecar written before SaveMeta
// commits, so a committed checkpoint always has a sidecar covering at
// least its rounds; resume truncates the excess.
type shardBackend struct {
	*store.CheckpointBackend
	dests *destLog
	spec  Spec
}

func (b shardBackend) SaveMeta(m store.Meta) error {
	if err := b.dests.save(destsPath(b.spec), b.spec, m.NextRound); err != nil {
		return err
	}
	return b.CheckpointBackend.SaveMeta(m)
}

// checkpointBackend builds the shard's checkpoint backend from the
// spec: the campaign fingerprint travels inside the spec and is
// stamped into every snapshot. When a fault plan is armed, the
// backend's commit points consult the injector, scoped by (shard,
// attempt) so a retried attempt draws fresh faults instead of
// replaying its predecessor's.
func checkpointBackend(spec Spec, inj *fault.Injector) *store.CheckpointBackend {
	b := store.NewCheckpointBackend(spec.CheckpointDir)
	b.Fingerprint = spec.Fingerprint
	if hook := inj.FSHook(uint64(spec.Index), uint64(spec.FaultAttempt)); hook != nil {
		b.Hook = hook
	}
	return b
}

// loadCheckpoint tries to resume the shard from its checkpoint
// directory. Any unusable state — no committed checkpoint, a lost
// dests sidecar, a foreign campaign's leftovers — falls back to a
// wiped directory and a fresh start; the directory is the shard's
// private scratch space, so that is always safe.
func loadCheckpoint(cfg core.Config, spec Spec, backend *store.CheckpointBackend) (*core.Scenario, *destLog) {
	meta, ok, err := backend.LoadMeta()
	if err == nil && !ok {
		return nil, nil // pristine directory
	}
	if err == nil {
		var dests *destLog
		if dests, err = loadDestLog(destsPath(spec), spec, meta.NextRound); err == nil {
			var s *core.Scenario
			if s, err = core.Resume(cfg, backend); err == nil {
				return s, dests
			}
		}
	}
	fmt.Fprintf(os.Stderr, "shard %d: discarding unusable checkpoint state in %s: %v\n",
		spec.Index, spec.CheckpointDir, err)
	os.RemoveAll(spec.CheckpointDir)
	return nil, nil
}

// sendSections streams the shard's results: the wire format IS the
// store's columnar encoding (delta-encoded DNS runs, packed samples),
// chunked at chunkIDs ids per frame so no frame outgrows its buffer at
// paper scale. Empty chunks are skipped.
const chunkIDs = 1 << 20

func sendSections(db *store.DB, spec Spec, emit func(typ byte, payload []byte) error) error {
	ranges := [][2]int64{{spec.MainLo, spec.MainHi}, {spec.ExtLo, spec.ExtHi}}
	send := func(section byte, v store.Vantage, claim string) error {
		for _, rg := range ranges {
			for lo := rg[0]; lo < rg[1]; lo += chunkIDs {
				hi := min(lo+chunkIDs, rg[1])
				payload, n, err := db.AppendShardSection(nil, section, v, alexa.SiteID(lo), alexa.SiteID(hi))
				if err != nil {
					return err
				}
				if n == 0 {
					continue
				}
				frame := encodeSectionFrame(sectionMsg{section: section, vantage: claim, lo: lo, hi: hi, payload: payload})
				if err := emit(frameSection, frame); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := send(store.ShardSites, "", spec.vantageLabel()); err != nil {
		return err
	}
	for _, v := range db.Vantages() {
		if err := send(store.ShardDNS, v, string(v)); err != nil {
			return err
		}
		if err := send(store.ShardSamples, v, string(v)); err != nil {
			return err
		}
	}
	return nil
}

// destLog records, per (vantage, round), the destination ASes whose
// paths the coordinator must replay: the path table collapses
// consecutive identical snapshots, which is not range-mergeable, so
// workers ship destination sets and the coordinator re-derives the
// (deterministic) paths itself. A vantage's main and extended tasks
// report the same round concurrently, hence the union under a mutex.
type destLog struct {
	mu sync.Mutex
	m  map[store.Vantage][][]int
}

func newDestLog() *destLog { return &destLog{m: make(map[store.Vantage][][]int)} }

func (d *destLog) record(v store.Vantage, round int, dsts []int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rounds := d.m[v]
	for len(rounds) <= round {
		rounds = append(rounds, nil)
	}
	rounds[round] = unionSorted(rounds[round], dsts)
	d.m[v] = rounds
}

// unionSorted merges two ascending distinct slices into one.
func unionSorted(a, b []int) []int {
	if len(a) == 0 {
		return append([]int(nil), b...)
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func (d *destLog) send(emit func(typ byte, payload []byte) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	vs := make([]store.Vantage, 0, len(d.m))
	for v := range d.m {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	for _, v := range vs {
		for round, dsts := range d.m[v] {
			if len(dsts) == 0 {
				continue
			}
			frame := encodeDestsFrame(destsMsg{vantage: string(v), round: round, dsts: dsts})
			if err := emit(frameDests, frame); err != nil {
				return err
			}
		}
	}
	return nil
}

// destsFile is the JSON sidecar persisting the dest log next to the
// shard checkpoint, stamped with the shard's identity so a stale file
// from a different split or campaign is rejected on resume.
type destsFile struct {
	NextRound   int                       `json:"next_round"`
	Fingerprint string                    `json:"fingerprint"`
	MainLo      int64                     `json:"main_lo"`
	MainHi      int64                     `json:"main_hi"`
	ExtLo       int64                     `json:"ext_lo"`
	ExtHi       int64                     `json:"ext_hi"`
	Dests       map[store.Vantage][][]int `json:"dests"`
}

func destsPath(spec Spec) string {
	return filepath.Join(spec.CheckpointDir, "dests.json")
}

func (d *destLog) save(path string, spec Spec, nextRound int) error {
	d.mu.Lock()
	f := destsFile{
		NextRound: nextRound, Fingerprint: spec.Fingerprint,
		MainLo: spec.MainLo, MainHi: spec.MainHi,
		ExtLo: spec.ExtLo, ExtHi: spec.ExtHi,
		Dests: d.m,
	}
	blob, err := json.Marshal(f)
	d.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return store.WriteFileDurable(path, blob)
}

// loadDestLog reads the sidecar back, validates it belongs to this
// spec and covers at least nextRound, and truncates rounds ≥ nextRound
// (they will be re-run after the checkpoint they follow).
func loadDestLog(path string, spec Spec, nextRound int) (*destLog, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f destsFile
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, err
	}
	if f.Fingerprint != spec.Fingerprint ||
		f.MainLo != spec.MainLo || f.MainHi != spec.MainHi ||
		f.ExtLo != spec.ExtLo || f.ExtHi != spec.ExtHi {
		return nil, fmt.Errorf("dests sidecar belongs to a different campaign or split")
	}
	if f.NextRound < nextRound {
		return nil, fmt.Errorf("dests sidecar at round %d behind checkpoint round %d", f.NextRound, nextRound)
	}
	d := newDestLog()
	for v, rounds := range f.Dests {
		if len(rounds) > nextRound {
			rounds = rounds[:nextRound]
		}
		d.m[v] = rounds
	}
	return d, nil
}
