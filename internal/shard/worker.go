package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

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
// thing in main; it returns immediately in ordinary processes. The
// worker shares the coordinator's stderr, and the coordinator's retry
// line already carries an error the worker sent as a frame, so only an
// error that could not be sent is printed.
func MaybeWorker() {
	if os.Getenv(WorkerEnv) == "" {
		return
	}
	if err := Serve(os.Stdin, os.Stdout); err != nil {
		if !errors.As(err, new(sentError)) {
			fmt.Fprintf(os.Stderr, "shard worker: %v\n", err)
		}
		os.Exit(1)
	}
	os.Exit(0)
}

// sentError is an error Serve also sent to the coordinator as an error
// frame.
type sentError struct{ error }

func (e sentError) Unwrap() error { return e.error }

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
// and exits cleanly; a later worker for the same spec resumes there. A
// failed run's error is also sent to out as an error frame when it
// can be.
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
		if writeFrame(bw, frameError, []byte(err.Error())) == nil && bw.Flush() == nil {
			return sentError{err}
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
		s    *core.Scenario
		opts []core.RunOption
		err  error
	)
	if spec.CheckpointDir != "" {
		backend := checkpointBackend(spec, inj)
		// State Open cannot continue (a foreign campaign's leftovers, a
		// corrupt checkpoint) is wiped and the shard starts fresh: the
		// directory is its private scratch space.
		if s, _, err = core.Open(cfg, backend); err != nil {
			fmt.Fprintf(os.Stderr, "shard %d: discarding unusable checkpoint state in %s: %v\n",
				spec.Index, spec.CheckpointDir, err)
			os.RemoveAll(spec.CheckpointDir)
		}
		opts = append(opts, core.WithCheckpoint(backend, spec.CheckpointEvery))
	}
	if s == nil {
		if s, err = core.NewScenario(cfg); err != nil {
			return err
		}
	}
	s.Restrict(spec.siteRange())

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
	return emit(frameDone, nil)
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

// sendSections streams the shard's results, one frame per section,
// vantage and non-empty spec range: the wire format IS the store's
// columnar encoding (delta-encoded DNS runs, packed samples). A range
// that holds no entries for a (section, vantage) sends no frame. Every
// frame is built in one reused buffer, its header first and the store
// appending the payload after it, so emit must not keep the slice
// after it returns (Serve's emit writes the frame out before it
// returns).
func sendSections(db *store.DB, spec Spec, emit func(typ byte, payload []byte) error) error {
	var frame []byte
	send := func(section byte, v store.Vantage) error {
		for i, rg := range spec.ranges() {
			if rg[0] >= rg[1] {
				continue
			}
			var n int
			var err error
			frame = appendSectionHeader(frame[:0], section, byte(i), string(v))
			if frame, n, err = db.AppendShardSection(frame, section, v, rg[0], rg[1]); err != nil {
				return err
			}
			if n == 0 {
				continue
			}
			if err := emit(frameSection, frame); err != nil {
				return err
			}
		}
		return nil
	}
	if err := send(store.ShardSites, ""); err != nil {
		return err
	}
	for _, v := range db.Vantages() {
		if err := send(store.ShardDNS, v); err != nil {
			return err
		}
		if err := send(store.ShardSamples, v); err != nil {
			return err
		}
	}
	return nil
}
