package daemon

// The campaign supervisor: one goroutine per campaign, running the
// scenario's resumable round cursor under checkpointing, with the
// failure handling a long-lived service needs layered on top —
// per-campaign panic isolation, a stuck-round watchdog, and
// bounded-backoff restarts that resume from the last committed
// checkpoint. The attempt loop, its budget and its watchdog are
// fault.RetryPolicy.Supervise's. A round cannot be cancelled (it is
// the atomic unit of progress), so an abandoned attempt leaves its
// round goroutine running, fenced off: it drops its publishes and
// events once Attempt.Fenced reports the abandonment. The fence is
// enforced, not advisory: the abandoned attempt's checkpoint writes
// are refused from the abandonment on (fencedBackend), its
// checkpoint-write handle is revoked under the backend lock when the
// replacement acquires its own (so the two can never interleave staged
// snapshots or collide on sequence numbers), the version swap refuses
// round regression, and its context is cancelled, so the completion
// tail (cli.Finish) writes no product and deletes nothing.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime/debug"
	"sync/atomic"
	"time"

	"v6web/internal/cli"
	"v6web/internal/core"
	"v6web/internal/fault"
	"v6web/internal/report"
	"v6web/internal/scenario"
	"v6web/internal/store"
)

// Campaign states, as reported by the status API.
const (
	StateStarting = "starting"
	StateRunning  = "running"
	StateBackoff  = "backoff"
	StateComplete = "complete"
	StateFailed   = "failed"
	StateDrained  = "drained"
)

// Campaign is one supervised measurement campaign: a compiled scenario
// pack, its on-disk home (manifest, checkpoint log, product), and
// the atomically swapped serving state.
type Campaign struct {
	Name string
	dir  string
	comp scenario.Compiled

	// ck is the campaign's one checkpoint backend, shared by every
	// attempt: each attempt Acquires a fenced write handle from it, so
	// an abandoned attempt's late checkpoint writes are rejected under
	// the backend lock instead of racing the replacement attempt's
	// staging directory and sequence numbers.
	ck *store.CheckpointBackend

	// warmSet is the pack's exhibit selection restricted to what the
	// daemon can serve (nil: pre-render every servable exhibit).
	warmSet map[string]bool

	version  atomic.Pointer[Version]
	seq      atomic.Uint64
	restarts atomic.Uint64
	state    atomic.Value // string
	lastErr  atomic.Value // string
	events   *broadcaster
}

func newCampaign(dir string, comp scenario.Compiled) *Campaign {
	c := &Campaign{
		Name:   filepath.Base(dir),
		dir:    dir,
		comp:   comp,
		ck:     store.NewCheckpointBackend(dir),
		events: newBroadcaster(),
	}
	c.ck.Fingerprint = comp.Config.Fingerprint()
	if len(comp.Exhibits) > 0 {
		c.warmSet = make(map[string]bool, len(comp.Exhibits))
		for _, ex := range comp.Exhibits {
			if servable(ex) {
				c.warmSet[ex] = true
			}
		}
	}
	c.state.Store(StateStarting)
	c.lastErr.Store("")
	return c
}

// Version returns the currently served version, nil before the first
// committed snapshot is loaded (readiness gates on this).
func (c *Campaign) Version() *Version { return c.version.Load() }

func (c *Campaign) State() string { return c.state.Load().(string) }

func (c *Campaign) setState(s string) { c.state.Store(s) }

// publish swaps in a freshly built version and reports its round as
// the attempt's progress — unless the attempt has been abandoned, in
// which case the version is dropped. The fence check alone is advisory
// (a publish racing the abandonment could land after the replacement
// attempt's), so the swap is a compare-and-swap that refuses to
// replace a version with a higher round (or a complete version with an
// incomplete one): served rounds never regress, and Seq order always
// matches round order. A fenced attempt's same-round version is
// byte-identical to the replacement's by determinism, so an
// equal-round swap is harmless either way.
func (c *Campaign) publish(a *fault.Attempt, v *Version) bool {
	for {
		if a.Fenced() {
			return false
		}
		cur := c.version.Load()
		if cur != nil && (cur.Round > v.Round || (cur.Round == v.Round && cur.Complete && !v.Complete)) {
			return false
		}
		v.Seq = c.seq.Add(1)
		if c.version.CompareAndSwap(cur, v) {
			break
		}
	}
	a.Advance(v.Round)
	c.events.send(Event{Campaign: c.Name, Kind: "version", Round: v.Round, Seq: v.Seq})
	return true
}

// supervise runs the campaign to completion (or terminal failure)
// under the retry policy, restarting failed attempts from the last
// committed checkpoint. An attempt that published a new round renews
// the budget, so only a campaign that cannot complete a single round
// within MaxAttempts tries is declared failed.
func (d *Daemon) supervise(ctx context.Context, c *Campaign) {
	err := d.retry.Supervise(ctx, func(a *fault.Attempt) error {
		return d.attempt(ctx, c, a)
	}, func(next int, err error) {
		c.lastErr.Store(err.Error())
		c.restarts.Add(1)
		c.setState(StateBackoff)
		d.logf("campaign %s: attempt failed (%v); retrying (attempt %d of %d)", c.Name, err, next+1, d.retry.MaxAttempts)
	})
	switch {
	case err == nil:
		c.setState(StateComplete)
		c.events.send(Event{Campaign: c.Name, Kind: "complete", Round: c.comp.Config.Rounds})
		d.logf("campaign %s: complete (%d rounds)", c.Name, c.comp.Config.Rounds)
	case ctx.Err() != nil:
		// Drained: the attempt's shutdown checkpoint (or the last
		// periodic one) is on disk; the next daemon start resumes.
		c.setState(StateDrained)
		d.logf("campaign %s: drained at round %d — checkpoint saved", c.Name, c.status().Round)
	default:
		c.lastErr.Store(err.Error())
		c.setState(StateFailed)
		d.logf("campaign %s: failed permanently after %d attempts without progress: %v", c.Name, d.retry.MaxAttempts, err)
	}
}

// attempt runs one supervised attempt: open (or resume) the campaign,
// publish a version for the committed state, then run rounds until
// they finish or the watchdog abandons the attempt. The round runner
// executes on its own goroutine so a panic is contained and a wedged
// round can be left behind; err classifies the outcome (nil: campaign
// complete).
func (d *Daemon) attempt(ctx context.Context, c *Campaign, a *fault.Attempt) error {
	// A campaign whose product is already on disk (completed in a
	// previous daemon run) is served from it — no re-run, no
	// checkpoint log needed.
	if done, err := d.openCompleted(c, a); err != nil {
		return err
	} else if done {
		return nil
	}

	// Acquire the attempt's fenced write handle on the campaign's
	// checkpoint log. This revokes any handle a previous (possibly
	// still-running, watchdog-abandoned) attempt holds: its late saves
	// fail with store.ErrStaleWriter. A corrupt or mismatched checkpoint
	// is an error the supervisor surfaces and retries (only committed
	// checkpoints are served, so a torn newest directory never lands here).
	ck := fencedBackend{c.ck.Acquire(), a}

	s, resumed, err := core.Open(c.comp.Config, ck)
	if err != nil {
		return err
	}
	if resumed {
		d.logf("campaign %s: resuming from checkpoint at round %d/%d", c.Name, s.RoundsDone(), c.comp.Config.Rounds)
	} else {
		// Fresh campaign: commit a round-0 checkpoint before serving, so
		// the version the daemon becomes ready with is always backed by
		// a committed snapshot — and a kill before round 1 still leaves
		// a resumable campaign on disk.
		if err := s.Checkpoint(ck); err != nil {
			return err
		}
		d.logf("campaign %s: starting (%d rounds)", c.Name, c.comp.Config.Rounds)
	}
	c.publish(a, buildVersion(s, s.DB.Freeze(), nil, false, c.warmSet))
	c.setState(StateRunning)

	// The watchdog covers the rounds, from here on. The round goroutine
	// runs under its own context, cancelled once the attempt is over:
	// an abandoned attempt's goroutine stops at its next check, before
	// it writes the product or deletes the checkpoint log.
	a.Beat()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	result := make(chan error, 1)
	go func() {
		result <- recovering(func() error { return d.runRounds(ctx, c, a, s, ck) })
	}()
	select {
	case err := <-result:
		return err
	case <-a.Abandoned():
		return fmt.Errorf("watchdog: no progress within %v plus backoff at round %d — abandoning attempt",
			d.retry.Timeout, c.status().Round)
	}
}

// fencedBackend is an attempt's checkpoint backend: the attempt's
// CheckpointWriter, refusing every save once the watchdog has
// abandoned the attempt. The writer itself refuses once a replacement
// attempt has acquired its own, checked under the backend lock for the
// whole save; this refuses from the abandonment on.
type fencedBackend struct {
	*store.CheckpointWriter
	a *fault.Attempt
}

func (b fencedBackend) Save(db *store.DB, m store.Meta) error {
	if b.a.Fenced() {
		return errFenced
	}
	return b.CheckpointWriter.Save(db, m)
}

// recovering runs fn with panics converted to errors, so a panicking
// campaign takes down one attempt, not the daemon.
func recovering(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("campaign panicked: %v\n%s", p, debug.Stack())
		}
	}()
	return fn()
}

// errFenced classifies an attempt the watchdog abandoned: the attempt's
// round goroutine noticed the fence and stopped before mutating shared
// campaign state. The supervisor never sees this error (its try
// returned when the attempt was abandoned); it exists so the abandoned
// goroutine exits without writing.
var errFenced = errors.New("daemon: attempt fenced by watchdog; stopping without writing")

// runRounds drives the campaign to completion on the attempt goroutine:
// core.RunContext runs the rounds, checkpointing on the configured
// cadence, and each round boundary publishes a fresh version — the
// scenario is then in exactly the state a Resume to the same round
// reproduces, which is what makes served exhibits byte-identical
// across crashes — then cli.Finish completes the campaign. A drain
// stops between rounds with a shutdown checkpoint, or in the
// completion tail with the main study committed.
//
// Every write to shared campaign state is gated on the attempt's
// fence: checkpoints by ck (a fencedBackend), publishes by publish,
// and the product and the checkpoint-log removal by ctx, which
// attempt cancels as soon as it sees the abandonment. A fenced attempt
// returns an error into a channel nobody reads and exits.
func (d *Daemon) runRounds(ctx context.Context, c *Campaign, a *fault.Attempt, s *core.Scenario, ck store.Backend) error {
	events := func(kind string) core.RunOption {
		return core.WithObserver(func(ev core.RoundEvent) {
			if a.Fenced() {
				return
			}
			a.Beat()
			c.events.send(roundEvent(c.Name, kind, ev))
		})
	}
	err := s.RunContext(ctx, core.WithCheckpoint(ck, d.opt.CheckpointEvery), events("round"),
		core.WithRoundHook(func(done int, commit func() error) error {
			// Publish after the round's cadence checkpoint: at the
			// default cadence every round but the last is committed
			// before it is served, and cli.Finish commits the last.
			if err := commit(); err != nil {
				return err
			}
			if a.Fenced() {
				return errFenced
			}
			c.publish(a, buildVersion(s, s.DB.Freeze(), nil, false, c.warmSet))
			if d.opt.RoundEvery > 0 && done < s.Cfg.Rounds {
				// The paper's weekly cadence, scaled: idle between
				// rounds, cut short by a drain.
				t := time.NewTimer(d.opt.RoundEvery)
				select {
				case <-ctx.Done():
				case <-t.C:
				}
				t.Stop()
			}
			return nil
		}))
	if err != nil {
		return err
	}
	// The side experiment is short and not checkpointed; a drain there
	// simply reruns it on the next start (the main study is committed).
	if err := cli.Finish(ctx, s, c.dir, ck, filepath.Join(c.dir, "checkpoints"), events("v6day-round")); err != nil {
		return err
	}
	v6 := report.StudyOfSnapshot(s.V6DayDB.Freeze(), report.V6DayThresholds())
	c.publish(a, buildVersion(s, s.DB.Freeze(), v6, true, c.warmSet))
	return nil
}

// openCompleted serves a campaign whose product (the binary snapshots
// cli.Finish wrote) is on disk from a previous run: both saved
// databases are loaded and analyzed exactly as `v6report -db` would,
// and the figures rebuilt from a fast-forwarded scenario (pure
// list/adoption state). Returns done=false when the campaign has not
// completed; a completed campaign whose product does not load is an
// error.
func (d *Daemon) openCompleted(c *Campaign, a *fault.Attempt) (bool, error) {
	meta, ok, err := store.ReadMeta(c.dir)
	if err != nil || !ok || !meta.Complete {
		return false, err
	}
	if meta.ConfigHash != c.comp.Config.Fingerprint() {
		return false, fmt.Errorf("daemon: campaign %s: completed databases have fingerprint %s, manifest compiles to %s",
			c.Name, meta.ConfigHash, c.comp.Config.Fingerprint())
	}
	main, v6day, err := cli.OpenCompleted(c.dir)
	if err != nil {
		return false, err
	}
	v, err := loadedVersion(c.comp.Config, main, v6day, c.warmSet)
	if err != nil {
		return false, err
	}
	c.publish(a, v)
	d.logf("campaign %s: serving completed campaign from saved databases", c.Name)
	return true, nil
}

// status is the JSON shape of one campaign in the status API.
type status struct {
	Name     string   `json:"name"`
	State    string   `json:"state"`
	Round    int      `json:"round"`
	Rounds   int      `json:"rounds"`
	Seq      uint64   `json:"seq"`
	Complete bool     `json:"complete"`
	Restarts uint64   `json:"restarts"`
	Date     string   `json:"date,omitempty"`
	LastErr  string   `json:"last_error,omitempty"`
	Warm     []string `json:"warm_exhibits,omitempty"`
}

func (c *Campaign) status() status {
	st := status{
		Name:     c.Name,
		State:    c.State(),
		Rounds:   c.comp.Config.Rounds,
		Restarts: c.restarts.Load(),
		LastErr:  c.lastErr.Load().(string),
	}
	if v := c.Version(); v != nil {
		st.Round = v.Round
		st.Seq = v.Seq
		st.Complete = v.Complete
		st.Warm = v.WarmNames()
		if !v.Date.IsZero() {
			st.Date = v.Date.Format("2006-01-02")
		}
	}
	return st
}
