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
	"path/filepath"
	"sort"
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

	// Dir is the root for per-shard checkpoint directories
	// (Dir/shard-NN). Empty disables checkpointing: a failed worker
	// then retries its shard from scratch instead of from the last
	// per-shard checkpoint.
	Dir string

	// CheckpointEvery is the worker checkpoint cadence in rounds
	// (default 2); ignored when Dir is empty.
	CheckpointEvery int

	// Retry is the unified retry/backoff policy: Timeout bounds the
	// silence between two frames from a worker before it is presumed
	// dead, MaxAttempts bounds attempts per shard, and the backoff
	// fields pace the retries (deterministic jitter keyed on the shard
	// index). Zero fields take fault.DefaultRetryPolicy values, which
	// reproduce the old FrameTimeout=5m / MaxRetries=2 behavior.
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
	WireBytes int64         // section + dests frame payload bytes
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

// permanentError marks failures retrying cannot fix (corrupt frames,
// merge conflicts); runShard gives up on them immediately.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Run executes cfg as opt.Workers site-range shards and returns the
// merged scenario, which serializes byte-identically to a
// single-process campaign. The coordinator never runs measurement
// rounds itself: it fast-forwards the ranked list (reserving the dense
// id ranges), merges worker frames, and replays path snapshots from
// the shipped destination sets. World-V6-Day rounds, analyses, and
// saving remain ordinary local calls on the returned scenario.
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
			specs[i].CheckpointDir = filepath.Join(opt.Dir, fmt.Sprintf("shard-%02d", i))
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
	dests := newDestLog()
	var (
		mu   sync.Mutex // serializes merges into s and writes to st
		wg   sync.WaitGroup
		errs = make([]error, len(specs))
	)
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = runShard(ctx, specs[i], opt, s, dests, st, &mu)
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
	replayDests(s, dests, cfg.Rounds)
	return s, st, nil
}

func runShard(ctx context.Context, spec Spec, opt Options, s *core.Scenario, dests *destLog, st *Stats, mu *sync.Mutex) error {
	var lastErr error
	for attempt := 0; attempt < opt.Retry.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if attempt > 0 {
			mu.Lock()
			st.Retries++
			mu.Unlock()
			fmt.Fprintf(opt.Log, "shard %d: retrying (attempt %d of %d) after: %v\n",
				spec.Index, attempt+1, opt.Retry.MaxAttempts, lastErr)
			// Deterministically jittered backoff before the respawn: a
			// canceled context cuts the wait short and ends the loop at
			// the ctx.Err check above on the next iteration.
			if err := opt.Retry.Wait(ctx, attempt, uint64(spec.Index)); err != nil {
				return err
			}
		}
		err := runShardOnce(ctx, spec, attempt, opt, s, dests, st, mu)
		if err == nil {
			return nil
		}
		var pe *permanentError
		if errors.As(err, &pe) || ctx.Err() != nil {
			lastErr = err
			break
		}
		lastErr = err
	}
	return fmt.Errorf("shard %d: %w", spec.Index, lastErr)
}

func runShardOnce(ctx context.Context, spec Spec, attempt int, opt Options, s *core.Scenario, dests *destLog, st *Stats, mu *sync.Mutex) error {
	// Arm the worker-side fault plan for this attempt — except on the
	// shard's last attempt, which runs clean so every armed schedule
	// stays recoverable by construction.
	lastAttempt := attempt == opt.Retry.MaxAttempts-1
	if opt.Faults.Enabled() && (!lastAttempt || opt.Faults.Unrecoverable) {
		spec.Faults, spec.FaultAttempt = opt.Faults, attempt
	} else {
		spec.Faults, spec.FaultAttempt = nil, 0
	}
	conn, err := opt.spawn(ctx, spec)
	if err != nil {
		return err
	}
	if opt.inj != nil && (!lastAttempt || opt.Faults.Unrecoverable) {
		if wf := opt.inj.WireFor(spec.Index, attempt, opt.Retry.Timeout); wf.Kind != fault.WireNone {
			fmt.Fprintf(opt.Log, "shard %d: injecting wire %s at offset %d (attempt %d)\n",
				spec.Index, wf.Kind, wf.Offset, attempt+1)
			conn = newFaultConn(conn, wf)
		}
	}
	defer func() {
		conn.kill()
		conn.wait()
	}()
	// Results are buffered until the done frame: a worker that dies
	// mid-stream contributes nothing, so its retry merges cleanly.
	res, bytes, err := consumeFrames(ctx, conn, spec, opt)
	if err != nil {
		return err
	}
	mu.Lock()
	start := time.Now() //v6lint:wallclock MergeDur is coordinator observability, not campaign state
	for _, m := range res.sections {
		if err := s.DB.MergeShard(alexa.SiteID(m.lo), alexa.SiteID(m.hi), m.section,
			store.Vantage(m.vantage), m.payload); err != nil {
			mu.Unlock()
			return &permanentError{fmt.Errorf("merging section %d [%d,%d): %w", m.section, m.lo, m.hi, err)}
		}
	}
	st.MergeDur += time.Since(start) //v6lint:wallclock MergeDur is coordinator observability, not campaign state
	st.WireBytes += bytes
	mu.Unlock()
	for _, m := range res.dests {
		dests.record(store.Vantage(m.vantage), m.round, m.dsts)
	}
	return nil
}

type shardResult struct {
	sections []sectionMsg
	dests    []destsMsg
}

// consumeFrames reads a worker's stream to its done frame under a
// liveness watchdog: any frame resets the timer, so a worker that is
// alive but slow survives while a killed one is detected within the
// retry policy's Timeout.
//
// A canceled context is a *graceful* stop: the worker is interrupted
// (SIGTERM for local processes), which makes it checkpoint between
// rounds and exit, and the stream keeps draining meanwhile — a worker
// already dumping its final sections finishes and the shard completes.
// Every terminal outcome after an interrupt maps to the context's
// error, so the campaign reports a clean interruption, not a worker
// failure.
func consumeFrames(ctx context.Context, conn workerConn, spec Spec, opt Options) (*shardResult, int64, error) {
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
	res := &shardResult{}
	var bytes int64
	interrupted := false
	// fail maps terminal failures to the interrupt when one is being
	// served: the worker exiting after its shutdown checkpoint (stream
	// end, an "interrupted" error frame) is the expected outcome, not a
	// shard failure.
	fail := func(err error) (*shardResult, int64, error) {
		if interrupted {
			return nil, 0, context.Cause(ctx)
		}
		return nil, 0, err
	}
	done := ctx.Done()
	timer := time.NewTimer(opt.Retry.Timeout)
	defer timer.Stop()
	for {
		select {
		case <-done:
			done = nil // the closed channel must not spin this loop
			interrupted = true
			conn.interrupt()
			fmt.Fprintf(opt.Log, "shard %d: interrupt — waiting for worker to checkpoint\n", spec.Index)
		case <-timer.C:
			conn.kill()
			return fail(fmt.Errorf("no frame within %v — worker presumed dead", opt.Retry.Timeout))
		case f := <-ch:
			if f.err != nil {
				conn.kill()
				return fail(fmt.Errorf("worker stream ended before done frame: %w", f.err))
			}
			if !timer.Stop() {
				<-timer.C
			}
			timer.Reset(opt.Retry.Timeout)
			switch f.typ {
			case frameHello:
				index, fp, err := decodeHello(f.payload)
				if err != nil {
					conn.kill()
					return fail(&permanentError{err})
				}
				if index != spec.Index || fp != spec.Fingerprint {
					conn.kill()
					return fail(&permanentError{fmt.Errorf("hello for shard %d fp %s, want shard %d fp %s",
						index, fp, spec.Index, spec.Fingerprint)})
				}
			case frameRound:
				round, sites, dual, measured, err := decodeRound(f.payload)
				if err == nil {
					fmt.Fprintf(opt.Log, "shard %d: round %d done (%d sites, %d dual, %d measured)\n",
						spec.Index, round, sites, dual, measured)
				}
			case frameSection:
				m, err := decodeSectionFrame(f.payload)
				if err != nil {
					conn.kill()
					return fail(&permanentError{err})
				}
				res.sections = append(res.sections, m)
				bytes += int64(len(f.payload))
			case frameDests:
				m, err := decodeDestsFrame(f.payload)
				if err != nil {
					conn.kill()
					return fail(&permanentError{err})
				}
				res.dests = append(res.dests, m)
				bytes += int64(len(f.payload))
			case frameError:
				conn.kill()
				return fail(fmt.Errorf("worker reported: %s", f.payload))
			case frameDone:
				return res, bytes, nil
			default:
				conn.kill()
				return fail(&permanentError{fmt.Errorf("unknown frame type %d", f.typ)})
			}
		}
	}
}

// replayDests re-derives path snapshots on the coordinator, in the
// exact order a single process would have inserted them: rounds
// ascending, and within a round each vantage's destination set (the
// union of the disjoint shards' sets). Path simulation is a pure
// function of (vantage, dst, family, round), so replay reproduces the
// collapsed snapshot history byte-for-byte.
func replayDests(s *core.Scenario, d *destLog, rounds int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	vs := make([]store.Vantage, 0, len(d.m))
	for v := range d.m {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	for r := 0; r < rounds; r++ {
		for _, v := range vs {
			if rs := d.m[v]; r < len(rs) && len(rs[r]) > 0 {
				s.ReplayPaths(v, r, rs[r])
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
