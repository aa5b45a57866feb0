package shard

// Chaos property tests: the headline proof of the fault-injection
// layer. A sharded campaign under an aggressive — but recoverable —
// deterministic fault schedule must finish byte-identical to the
// fault-free single-process run, and two faulty runs at the same seed
// must take the exact same path (same retry count, same bytes). The
// schedules here draw filesystem faults at worker checkpoint commit
// points, wire faults (cuts, corruption, hangs, delays, duplicate
// heartbeats) on the coordinator's streams, and vantage outages at the
// campaign level.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"v6web/internal/core"
	"v6web/internal/fault"
)

// chaosPolicy keeps faulty attempts cheap: hangs are cut loose by the
// 2s watchdog and backoff is milliseconds, so a test full of injected
// failures still runs in seconds.
func chaosPolicy() fault.RetryPolicy {
	return fault.RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Timeout:     2 * time.Second,
	}
}

// aggressiveFaults is the chaos schedule: every fault class armed at
// probabilities high enough that most shards lose at least one attempt.
func aggressiveFaults(seed int64) *fault.Config {
	return &fault.Config{
		Seed: seed,
		FS: fault.FSPlan{
			WriteFail: 0.1, SyncFail: 0.1, RenameFail: 0.1,
			CrashAfterCommit: 0.05, PruneFail: 0.1,
		},
		Wire: fault.WirePlan{
			Cut: 0.3, Corrupt: 0.25, Hang: 0.1, Delay: 0.1, DupRound: 0.25,
		},
	}
}

func runChaos(t *testing.T, cfg core.Config, fc *fault.Config, k int) (string, *Stats, string) {
	t.Helper()
	specs, err := Split(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	s, st, err := runSpecs(context.Background(), cfg, specs, Options{
		spawn:           inprocSpawner,
		Dir:             t.TempDir(),
		CheckpointEvery: 2,
		Retry:           chaosPolicy(),
		Faults:          fc,
		Log:             &log,
	})
	if err != nil {
		t.Fatalf("chaos campaign failed (must be recoverable): %v\n%s", err, log.String())
	}
	if err := s.RunWorldV6DayContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	return saveCampaign(t, s, "chaos"), st, log.String()
}

// TestChaosCampaignByteIdentical is the tentpole property test of this
// layer: an aggressively faulted campaign (a) completes, because the
// coordinator strips the plan from every shard's final attempt; (b) is
// byte-identical to the fault-free single-process run; and (c) repeats
// identically — same CSV bytes AND same retry count — at the same
// fault seed, because every draw is deterministic.
func TestChaosCampaignByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos property test in -short mode")
	}
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := testCfg(seed)
			refDir := referenceRun(t, cfg)
			fc := aggressiveFaults(seed*977 + 13)

			dir1, st1, log1 := runChaos(t, cfg, fc, 4)
			assertCampaignsIdentical(t, refDir, dir1, "chaos run")
			if st1.Retries < 1 {
				t.Errorf("aggressive schedule injected no observable fault (0 retries):\n%s", log1)
			}
			if !strings.Contains(log1, "injecting wire") {
				t.Errorf("no wire fault armed across 4 shards:\n%s", log1)
			}

			dir2, st2, _ := runChaos(t, cfg, fc, 4)
			assertCampaignsIdentical(t, dir1, dir2, "chaos repeat")
			if st1.Retries != st2.Retries {
				t.Errorf("retry count not deterministic: %d then %d", st1.Retries, st2.Retries)
			}
		})
	}
}

// TestChaosUnrecoverableScheduleFails pins the other side of the
// recoverability contract: with Unrecoverable set the final attempt is
// NOT spared, so a certain wire cut must sink the campaign instead of
// silently degrading it.
func TestChaosUnrecoverableScheduleFails(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos property test in -short mode")
	}
	cfg := testCfg(3)
	specs, err := Split(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := runSpecs(context.Background(), cfg, specs, Options{
		spawn:           inprocSpawner,
		Dir:             t.TempDir(),
		CheckpointEvery: 2,
		Retry:           fault.RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond, Timeout: 30 * time.Second},
		Faults: &fault.Config{
			Seed:          99,
			Unrecoverable: true,
			// Every checkpoint write fails, on every attempt including
			// the final one: no shard can ever finish.
			FS: fault.FSPlan{WriteFail: 1.0},
		},
	})
	if err == nil {
		t.Fatal("unrecoverable schedule completed; want campaign failure")
	}
	if st.Retries == 0 {
		t.Errorf("expected retries before giving up, got %+v", st)
	}
}

// TestShardedOutageCampaignByteIdentical: a campaign-level outage
// schedule is campaign state, so the sharded run must agree with the
// single-process run byte-for-byte — including under wire faults on
// top of the degraded roster.
func TestShardedOutageCampaignByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded outage property test in -short mode")
	}
	cfg := testCfg(6)
	cfg.Outages = []core.VantageOutage{
		{Vantage: "Penn", From: 2, To: 4},
		{Vantage: "Comcast", From: 3, To: 5},
	}
	refDir := referenceRun(t, cfg)
	dir, _, _ := runChaos(t, cfg, aggressiveFaults(41), 3)
	assertCampaignsIdentical(t, refDir, dir, "sharded outage campaign")
}

// TestWorkerConnectsBeforeCoordinatorListens is the reconnect
// regression test: a remote worker started BEFORE its coordinator is
// listening must retry the dial with backoff and join once the
// listener appears, instead of dying on connection refused.
func TestWorkerConnectsBeforeCoordinatorListens(t *testing.T) {
	if testing.Short() {
		t.Skip("network property test in -short mode")
	}
	// Reserve an address, then free it for the coordinator: the worker
	// dials a dead port first.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cfg := testCfg(7)
	refDir := referenceRun(t, cfg)

	var wg sync.WaitGroup
	wg.Add(1)
	workerErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		workerErr <- ServeAddrRetry(addr, fault.RetryPolicy{
			MaxAttempts: 50,
			BaseDelay:   20 * time.Millisecond,
			MaxDelay:    100 * time.Millisecond,
			Timeout:     5 * time.Second,
		})
	}()
	// Let the worker burn a few refused dials before the listener
	// exists — the exact regression this test pins.
	time.Sleep(150 * time.Millisecond)

	var log bytes.Buffer
	s, st, err := Run(context.Background(), cfg, Options{
		Workers: 2,
		Listen:  addr,
		Log:     &log,
	})
	if err != nil {
		t.Fatalf("coordinated run: %v\n%s", err, log.String())
	}
	if st.Shards != 2 {
		t.Fatalf("odd stats %+v", st)
	}
	wg.Wait()
	if err := <-workerErr; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if err := s.RunWorldV6DayContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertCampaignsIdentical(t, refDir, saveCampaign(t, s, "late-listener"), "worker-before-listener")
}

// cancelOnRound cancels the campaign context once any shard reports
// the given round done — mid-campaign, from the coordinator's own
// progress stream, the way a SIGTERM handler would.
type cancelOnRound struct {
	needle string
	cancel context.CancelFunc
	once   sync.Once
	buf    bytes.Buffer
}

func (c *cancelOnRound) Write(p []byte) (int, error) {
	n, err := c.buf.Write(p)
	if strings.Contains(c.buf.String(), c.needle) {
		c.once.Do(c.cancel)
	}
	return n, err
}

// TestCoordinatorGracefulInterrupt exercises the graceful-shutdown
// path end to end with real worker processes: cancellation interrupts
// every live worker (SIGTERM), each checkpoints and exits, the run
// reports the context's error — and a second run over the same
// checkpoint directory resumes and finishes byte-identical to an
// uninterrupted campaign.
func TestCoordinatorGracefulInterrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("process-spawning interrupt test in -short mode")
	}
	cfg := testCfg(8)
	refDir := referenceRun(t, cfg)
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	log := &cancelOnRound{needle: "round 2 done", cancel: cancel}
	_, _, err := Run(ctx, cfg, Options{
		Workers:         3,
		Dir:             dir,
		CheckpointEvery: 1,
		Log:             log,
	})
	if err == nil {
		t.Fatal("interrupted run completed; want context error")
	}
	if ctx.Err() == nil {
		t.Fatalf("run failed before the interrupt: %v\n%s", err, log.buf.String())
	}
	if !strings.Contains(log.buf.String(), "interrupt — waiting for worker to checkpoint") {
		t.Errorf("no graceful interrupt logged:\n%s", log.buf.String())
	}

	// Second invocation, same checkpoint root: workers resume from
	// their shard checkpoints and the merged campaign is whole.
	var rlog bytes.Buffer
	s, _, err := Run(context.Background(), cfg, Options{
		Workers:         3,
		Dir:             dir,
		CheckpointEvery: 1,
		Log:             &rlog,
	})
	if err != nil {
		t.Fatalf("resumed run: %v\n%s", err, rlog.String())
	}
	if err := s.RunWorldV6DayContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertCampaignsIdentical(t, refDir, saveCampaign(t, s, "resumed"), "after graceful interrupt")
}
