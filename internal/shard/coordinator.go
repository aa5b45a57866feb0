package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/core"
	"v6web/internal/fault"
	"v6web/internal/store"
)

// Options configures a coordinated sharded campaign.
type Options struct {
	// Workers is the shard count (default 4). With Listen unset, each
	// shard gets a locally spawned worker process.
	Workers int

	// Dir is the root for per-shard checkpoint directories, each
	// named after its shard's index and site ranges
	// (Dir/shard-NN-mainLo-mainHi-extLo-extHi), so a rerun with another
	// shard count never resumes a checkpoint cut for other ranges.
	// Empty disables checkpointing: a failed worker then retries its
	// shard from scratch instead of from the last per-shard checkpoint.
	Dir string

	// CheckpointEvery is the worker checkpoint cadence in rounds
	// (default 2); ignored when Dir is empty.
	CheckpointEvery int

	// Retry is the shard attempts' retry policy: Timeout plus the
	// backoff that preceded an attempt bounds the silence between two
	// frames from its worker before the worker is presumed dead,
	// MaxAttempts bounds a shard's attempts in a row that complete no
	// new round, and the backoff fields pace the retries. Zero fields
	// take the RetryPolicy.WithDefaults values, which reproduce the
	// old FrameTimeout=5m / MaxRetries=2 behavior.
	Retry fault.RetryPolicy

	// Faults, when set, arms the deterministic fault injector over
	// this campaign: filesystem faults at the workers' checkpoint
	// commit points, wire faults on the coordinator's read streams.
	// The plan travels to workers inside the shard spec, and no fault
	// is injected on a shard's final attempt (unless the plan says
	// Unrecoverable), so armed schedules remain recoverable.
	Faults *fault.Config

	// Command is the worker argv; empty re-execs the current binary
	// with WorkerEnv set.
	Command []string

	// Listen, when set, accepts remote workers (`v6shard worker
	// -connect addr`) on this address instead of spawning local
	// processes; each accepted connection serves one shard.
	//
	// A retried attempt is fenced off from its predecessor by reaping
	// the predecessor's worker first, and a remote worker cannot be
	// reaped: closing its connection returns at once. A worker
	// abandoned mid-round can therefore still commit one checkpoint
	// into its shard directory while the retry runs (a known gap).
	Listen string

	// Log receives progress lines (heartbeats, retries); nil discards.
	Log io.Writer

	// spawn is the transport test hook: tests substitute an in-process
	// worker to exercise the full data path without exec.
	spawn func(ctx context.Context, spec Spec) (workerConn, error)

	// inj is the armed injector runSpecs builds from Faults.
	inj *fault.Injector
}

// Stats reports what a sharded run cost.
type Stats struct {
	Shards    int
	Retries   int
	WireBytes int64         // section frame payload bytes
	MergeDur  time.Duration // total time inside DB.MergeShard
}

// workerConn is one attempt's transport: a frame stream plus the means
// to stop it. interrupt asks the worker to checkpoint and exit
// gracefully (SIGTERM for local processes); kill stops it immediately.
type workerConn interface {
	io.Reader
	interrupt()
	kill()
	wait() error
}

// Run executes cfg as opt.Workers site-range shards and returns the
// merged scenario, which serializes byte-identically to a
// single-process campaign. The coordinator never runs measurement
// rounds itself: it fast-forwards the ranked list (reserving the dense
// id ranges), merges worker frames, and rebuilds the path table from
// the merged DNS history (core.Scenario.ReplayPaths). World-V6-Day
// rounds, analyses, and saving remain ordinary local calls on the
// returned scenario.
func Run(ctx context.Context, cfg core.Config, opt Options) (*core.Scenario, *Stats, error) {
	if cfg.Vantages == nil {
		cfg.Vantages = core.DefaultVantages()
	}
	if opt.Workers < 1 {
		opt.Workers = 4
	}
	specs, err := Split(cfg, opt.Workers)
	if err != nil {
		return nil, nil, err
	}
	return runSpecs(ctx, cfg, specs, opt)
}

// runSpecs is Run after the split: it accepts arbitrary (non-equal)
// shard specs, which the property tests exploit with random cut
// points.
func runSpecs(ctx context.Context, cfg core.Config, specs []Spec, opt Options) (*core.Scenario, *Stats, error) {
	if cfg.Vantages == nil {
		cfg.Vantages = core.DefaultVantages()
	}
	if opt.CheckpointEvery < 1 {
		opt.CheckpointEvery = 2
	}
	opt.Retry = opt.Retry.WithDefaults()
	if opt.Faults.Enabled() {
		opt.inj = fault.New(*opt.Faults, cfg.Fingerprint())
	}
	if opt.Log == nil {
		opt.Log = io.Discard
	}
	// Shard goroutines log concurrently; the caller's writer (a file,
	// a test buffer) need not be safe for that.
	opt.Log = &syncWriter{w: opt.Log}
	for i := range specs {
		if opt.Dir != "" {
			specs[i].CheckpointDir = specs[i].checkpointDir(opt.Dir)
			specs[i].CheckpointEvery = opt.CheckpointEvery
		}
	}
	s, err := core.NewScenario(cfg)
	if err != nil {
		return nil, nil, err
	}
	// Advance the ranked list through the whole campaign: this reserves
	// the same dense id ranges the workers populate (so MergeShard
	// lands rows dense) and leaves the list in its campaign-end state
	// for V6-Day staging and reports.
	s.FastForward(cfg.Rounds)

	if opt.spawn == nil {
		if opt.Listen != "" {
			ln, err := net.Listen("tcp", opt.Listen)
			if err != nil {
				return nil, nil, err
			}
			defer ln.Close()
			// lnDone closes leftover dialed-in workers when the campaign
			// ends: a worker that connects after the last shard completed
			// would otherwise block forever waiting for a spec that will
			// never come.
			lnDone := make(chan struct{})
			defer close(lnDone)
			opt.spawn = listenSpawner(ln, lnDone)
			fmt.Fprintf(opt.Log, "coordinator: waiting for %d workers on %s\n", len(specs), ln.Addr())
		} else {
			opt.spawn = execSpawner(opt.Command)
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := &Stats{Shards: len(specs)}
	var (
		mu   sync.Mutex // serializes merges into s and writes to st
		wg   sync.WaitGroup
		errs = make([]error, len(specs))
	)
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runShard(ctx, specs[i], opt, s, st, &mu)
			if errs[i] != nil {
				cancel() // one dead shard fails the campaign; stop the rest
			}
		}(i)
	}
	wg.Wait()
	// Prefer a shard's real failure over the context cancellations it
	// triggered in its siblings.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil || errors.Is(firstErr, context.Canceled) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, st, firstErr
	}
	s.ReplayPaths()
	return s, st, nil
}

// runShard runs one shard's attempts under the retry policy; round
// frames are their progress. An attempt returns only after its local
// worker was reaped, so a killed worker cannot write into the shard
// directory its successor resumes from.
func runShard(ctx context.Context, spec Spec, opt Options, s *core.Scenario, st *Stats, mu *sync.Mutex) error {
	err := opt.Retry.Supervise(ctx, func(a *fault.Attempt) error {
		return runShardOnce(ctx, spec, a, opt, s, st, mu)
	}, func(next int, err error) {
		mu.Lock()
		st.Retries++
		mu.Unlock()
		fmt.Fprintf(opt.Log, "shard %d: retrying (attempt %d of %d) after: %v\n",
			spec.Index, next+1, opt.Retry.MaxAttempts, err)
	})
	if err != nil {
		return fmt.Errorf("shard %d: %w", spec.Index, err)
	}
	return nil
}

func runShardOnce(ctx context.Context, spec Spec, a *fault.Attempt, opt Options, s *core.Scenario, st *Stats, mu *sync.Mutex) error {
	// Arm the fault plan for this attempt — except on the last attempt
	// of the shard's budget, which runs clean so every armed schedule
	// stays recoverable by construction.
	armed := opt.Faults.Enabled() && (!a.Last || opt.Faults.Unrecoverable)
	if armed {
		spec.Faults, spec.FaultAttempt = opt.Faults, a.N
	} else {
		spec.Faults, spec.FaultAttempt = nil, 0
	}
	conn, err := opt.spawn(ctx, spec)
	if err != nil {
		return err
	}
	if armed {
		if wf := opt.inj.WireFor(spec.Index, a.N, opt.Retry.Timeout); wf.Kind != fault.WireNone {
			fmt.Fprintf(opt.Log, "shard %d: injecting wire %s at offset %d (attempt %d)\n",
				spec.Index, wf.Kind, wf.Offset, a.N+1)
			conn = newFaultConn(conn, wf)
		}
	}
	defer func() {
		conn.kill()
		conn.wait()
	}()
	// Results are buffered until the done frame: a worker that dies
	// mid-stream contributes nothing, so its retry merges cleanly.
	sections, bytes, err := consumeFrames(ctx, a, conn, spec, opt)
	if err != nil {
		return err
	}
	mu.Lock()
	start := time.Now() //v6lint:wallclock MergeDur is coordinator observability, not campaign state
	for _, m := range sections {
		if err := s.DB.MergeShard(alexa.SiteID(m.lo), alexa.SiteID(m.hi), m.section,
			store.Vantage(m.vantage), m.payload); err != nil {
			mu.Unlock()
			return fault.Permanent(fmt.Errorf("merging section %d [%d,%d): %w", m.section, m.lo, m.hi, err))
		}
	}
	st.MergeDur += time.Since(start) //v6lint:wallclock MergeDur is coordinator observability, not campaign state
	st.WireBytes += bytes
	mu.Unlock()
	return nil
}

// consumeFrames reads a worker's stream to its done frame under the
// attempt's watchdog: every frame is a beat, so a worker that is alive
// but slow survives while a killed one is detected once the watchdog
// abandons the attempt. Round frames are the attempt's progress.
//
// A canceled context is a *graceful* stop: the worker is interrupted
// (SIGTERM for local processes), which makes it checkpoint between
// rounds and exit, and the stream keeps draining meanwhile — a worker
// already dumping its final sections finishes and the shard completes.
// Every terminal outcome after an interrupt maps to the context's
// error, so the campaign reports a clean interruption, not a worker
// failure.
func consumeFrames(ctx context.Context, a *fault.Attempt, conn workerConn, spec Spec, opt Options) ([]sectionMsg, int64, error) {
	type frame struct {
		typ     byte
		payload []byte
		err     error
	}
	ch := make(chan frame, 16)
	// stop unblocks the reader goroutine's send once this function has
	// returned and nobody drains ch: without it, a worker that streamed
	// more than a buffer's worth of frames past a permanent error (or a
	// watchdog fire) would leave the goroutine parked on the send
	// forever. The deferred conn.kill in runShardOnce unsticks the
	// blocking Read itself.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		br := bufio.NewReaderSize(conn, 1<<16)
		for {
			typ, payload, err := readFrame(br)
			select {
			case ch <- frame{typ, payload, err}:
			case <-stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	var sections []sectionMsg
	var bytes int64
	interrupted := false
	// fail maps terminal failures to the interrupt when one is being
	// served: the worker exiting after its shutdown checkpoint (stream
	// end, an "interrupted" error frame) is the expected outcome, not a
	// shard failure.
	fail := func(err error) ([]sectionMsg, int64, error) {
		if interrupted {
			return nil, 0, context.Cause(ctx)
		}
		return nil, 0, err
	}
	done := ctx.Done()
	a.Beat()
	for {
		select {
		case <-done:
			done = nil // the closed channel must not spin this loop
			interrupted = true
			conn.interrupt()
			fmt.Fprintf(opt.Log, "shard %d: interrupt — waiting for worker to checkpoint\n", spec.Index)
		case <-a.Abandoned():
			conn.kill()
			return fail(fmt.Errorf("no frame within %v plus backoff — worker presumed dead", opt.Retry.Timeout))
		case f := <-ch:
			if f.err != nil {
				conn.kill()
				return fail(fmt.Errorf("worker stream ended before done frame: %w", f.err))
			}
			a.Beat()
			switch f.typ {
			case frameHello:
				index, fp, err := decodeHello(f.payload)
				if err != nil {
					conn.kill()
					return fail(fault.Permanent(err))
				}
				if index != spec.Index || fp != spec.Fingerprint {
					conn.kill()
					return fail(fault.Permanent(fmt.Errorf("hello for shard %d fp %s, want shard %d fp %s",
						index, fp, spec.Index, spec.Fingerprint)))
				}
			case frameRound:
				round, sites, dual, measured, err := decodeRound(f.payload)
				if err == nil {
					a.Advance(round + 1)
					fmt.Fprintf(opt.Log, "shard %d: round %d done (%d sites, %d dual, %d measured)\n",
						spec.Index, round, sites, dual, measured)
				}
			case frameSection:
				m, err := decodeSectionFrame(f.payload)
				if err != nil {
					conn.kill()
					return fail(fault.Permanent(err))
				}
				sections = append(sections, m)
				bytes += int64(len(f.payload))
			case frameError:
				conn.kill()
				return fail(fmt.Errorf("worker reported: %s", f.payload))
			case frameDone:
				return sections, bytes, nil
			default:
				conn.kill()
				return fail(fault.Permanent(fmt.Errorf("unknown frame type %d", f.typ)))
			}
		}
	}
}

// execSpawner launches worker processes locally: the given argv (or
// this binary re-exec'd) with WorkerEnv set, spec on stdin, frames on
// stdout, stderr passed through.
func execSpawner(argv []string) func(ctx context.Context, spec Spec) (workerConn, error) {
	return func(ctx context.Context, spec Spec) (workerConn, error) {
		av := argv
		if len(av) == 0 {
			exe, err := os.Executable()
			if err != nil {
				return nil, err
			}
			av = []string{exe}
		}
		cmd := exec.Command(av[0], av[1:]...)
		cmd.Env = append(os.Environ(), WorkerEnv+"=1")
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		if err := writeSpec(stdin, spec); err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, err
		}
		stdin.Close()
		return &procConn{cmd: cmd, out: stdout}, nil
	}
}

type procConn struct {
	cmd      *exec.Cmd
	out      io.ReadCloser
	waitOnce sync.Once
	waitErr  error
}

func (p *procConn) Read(b []byte) (int, error) { return p.out.Read(b) }
func (p *procConn) kill()                      { p.cmd.Process.Kill() }

// interrupt delivers SIGTERM, which the worker's signal context turns
// into checkpoint-and-exit between rounds. If signaling is impossible
// (platform or an already-dead process) the liveness watchdog still
// bounds the wait and falls back to kill.
func (p *procConn) interrupt() { p.cmd.Process.Signal(syscall.SIGTERM) }

func (p *procConn) wait() error {
	p.waitOnce.Do(func() { p.waitErr = p.cmd.Wait() })
	return p.waitErr
}

// listenSpawner hands each shard spec to the next worker that dials
// in; a retried shard simply goes to the next connection, so remote
// workers can come and go. Once done closes (the campaign is over),
// accepted connections are closed instead of parked, so a worker
// racing the listener shutdown sees a dead connection — which
// ServeAddrRetry treats as the campaign's normal end — rather than
// hanging on a spec that will never arrive.
func listenSpawner(ln net.Listener, done <-chan struct{}) func(ctx context.Context, spec Spec) (workerConn, error) {
	conns := make(chan net.Conn)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				close(conns)
				return
			}
			select {
			case conns <- c:
			case <-done:
				c.Close()
			}
		}
	}()
	return func(ctx context.Context, spec Spec) (workerConn, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case c, ok := <-conns:
			if !ok {
				return nil, fmt.Errorf("listener closed")
			}
			if err := writeSpec(c, spec); err != nil {
				c.Close()
				return nil, err
			}
			return &netConn{c: c}, nil
		}
	}
}

type netConn struct{ c net.Conn }

func (n *netConn) Read(b []byte) (int, error) { return n.c.Read(b) }
func (n *netConn) kill()                      { n.c.Close() }

// interrupt closes the connection: there is no signal channel to a
// remote worker, so it sees the coordinator go away and exits; its
// last periodic checkpoint stands for the next attempt.
func (n *netConn) interrupt() { n.c.Close() }

// wait returns at once: a remote worker cannot be reaped, so its
// retry is not fenced off from it (see Options.Listen).
func (n *netConn) wait() error { return nil }

// syncWriter serializes concurrent shard-goroutine writes onto one
// progress writer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
