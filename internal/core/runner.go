package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/measure"
	"v6web/internal/store"
)

// This file is the campaign runner: the paper's study is a long-lived
// measurement campaign (six vantages, weekly rounds, nine months), so
// execution is modeled as a resumable round cursor rather than one
// blocking batch call. RunContext drives the cursor under a context,
// streams RoundEvents to observers, and checkpoints completed rounds
// to a store.Backend so a killed campaign resumes — round for round
// bit-identical to an uninterrupted run — via Open.

// RoundEvent is one entry of the campaign's event stream: a vantage
// finished monitoring its site population for a round.
type RoundEvent struct {
	Round   int
	Date    time.Time
	Vantage store.Vantage
	Stats   measure.RoundStats
	Elapsed time.Duration

	// Outage marks a degraded round: the vantage was scheduled offline
	// (Config.Outages) and ran no monitoring, so Stats and Elapsed are
	// zero. The event holds the vantage's roster slot in the stream so
	// observers see the gap rather than silence.
	Outage bool
}

// Observer receives round events as they happen. Observers run
// synchronously on the campaign goroutine between rounds; slow
// observers slow the campaign, not corrupt it.
type Observer func(RoundEvent)

type runOptions struct {
	observers []Observer
	backend   store.Backend
	every     int
	hook      func(done int, commit func() error) error
}

// RunOption configures one RunContext / RunWorldV6DayContext call.
type RunOption func(*runOptions)

// WithObserver streams round events to fn. May be given repeatedly;
// observers are invoked in registration order.
func WithObserver(fn Observer) RunOption {
	return func(o *runOptions) { o.observers = append(o.observers, fn) }
}

// WithCheckpoint checkpoints the campaign to b every `every`
// completed rounds before the last, and on an early stop (see
// RunContext). every <= 0 checkpoints nothing; a nil b with every > 0
// is an error.
func WithCheckpoint(b store.Backend, every int) RunOption {
	return func(o *runOptions) { o.backend, o.every = b, every }
}

// WithRoundHook runs fn at every round boundary, after the round's
// events, with the number of completed rounds and commit, which takes
// the boundary's cadence checkpoint: a no-op off the cadence and after
// its first call. RunContext calls commit once fn returns, so fn calls
// it only to order its own work after the checkpoint (publishing
// committed state, say) rather than before it (reporting the round
// first). An error from fn or commit ends the run at once, without a
// shutdown checkpoint. fn may also stop the run at this boundary by
// cancelling the run's context.
func WithRoundHook(fn func(done int, commit func() error) error) RunOption {
	return func(o *runOptions) { o.hook = fn }
}

func emit(observers []Observer, evs ...RoundEvent) {
	for _, ev := range evs {
		for _, fn := range observers {
			fn(ev)
		}
	}
}

// RunContext executes monitoring rounds from the current cursor to the
// end of the main study under ctx; once all rounds have executed,
// further calls are no-ops. It is the one loop over the round cursor:
// v6mon, the shard workers and v6mond all run their rounds here, each
// with its own per-round work in a WithRoundHook hook and its own
// checkpoint behaviour in the store.Backend it passes.
//
// Cancellation is honored between rounds — a round is the atomic unit
// of progress. With checkpointing on, the checkpoint rule is:
// checkpoint after every `every`-th round except the last, and on an
// early stop (a cancelled ctx) commit the cursor unless the backend
// already holds it (Commit), so a stop that lands right after a
// checkpoint, or before a resumed campaign's first round, writes
// nothing twice. The finished main study is never committed here: a
// caller that keeps it commits it itself (cli.Finish does), and a
// shard worker, whose product is streamed, never does. A failed
// shutdown checkpoint is returned instead of the context error, so
// errors.Is(err, context.Canceled) means progress was saved.
func (s *Scenario) RunContext(ctx context.Context, opts ...RunOption) error {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.every > 0 && o.backend == nil {
		return fmt.Errorf("core: WithCheckpoint every %d rounds without a backend", o.every)
	}
	for s.next < s.Cfg.Rounds {
		if err := ctx.Err(); err != nil {
			if o.every > 0 {
				if cerr := s.Commit(o.backend); cerr != nil {
					return fmt.Errorf("core: shutdown checkpoint at round %d failed (campaign interrupted: %v): %w", s.next, err, cerr)
				}
			}
			return err
		}
		if err := s.NextRound(o.observers...); err != nil {
			return err
		}
		due := o.every > 0 && s.next%o.every == 0 && s.next < s.Cfg.Rounds
		commit := func() error {
			if !due {
				return nil
			}
			due = false
			return s.Checkpoint(o.backend)
		}
		if o.hook != nil {
			if err := o.hook(s.next, commit); err != nil {
				return err
			}
		}
		if err := commit(); err != nil {
			return err
		}
	}
	return nil
}

// roundTask is one unit of round work: a started vantage's main
// population, or the extended population at an extended vantage. The
// extended shard is its own unit so the ~5M-site Penn sweep overlaps
// the main sweep instead of serializing behind it.
type roundTask struct {
	vp  int // index into Cfg.Vantages
	ext bool
}

// roundWorkers resolves the round-level worker bound.
func (s *Scenario) roundWorkers() int {
	if s.Cfg.RoundWorkers > 0 {
		return s.Cfg.RoundWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// runTasks executes every task, concurrently on a bounded pool when
// workers > 1. Results land in the caller's slot for each task, so
// completion order never matters.
func runTasks(workers, n int, run func(k int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			run(k)
		}
		return
	}
	jobs := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				run(k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
}

// NextRound executes the next monitoring round at every active
// vantage and advances the cursor: the round's list is folded into
// the tracked set, each started vantage monitors its population (plus
// the extended population at extended vantages), and the ranked list
// churns forward. Events stream to the given observers.
//
// The round is the parallel unit: all units of work are dispatched
// onto a bounded pool (Config.RoundWorkers) and their results
// collected into per-task slots, then events are emitted in vantage
// roster order — so observers, checkpoints, and CSVs are
// byte-identical to the serial path. Parallelism cannot perturb
// sampling: every random draw is derived per (seed, round, site), so
// no RNG state is shared across units of work, and the vantage
// tables' writes go through the store's sharded locks.
func (s *Scenario) NextRound(observers ...Observer) error {
	if s.next >= s.Cfg.Rounds {
		return fmt.Errorf("core: all %d rounds already executed", s.Cfg.Rounds)
	}
	r := s.next
	date := s.dates[r]
	tf := s.tFrac(date)
	s.absorbRanked()
	s.fillUntil()

	var tasks []roundTask
	offline := make([]bool, len(s.Cfg.Vantages))
	for i, vp := range s.Cfg.Vantages {
		if r < vp.StartRound {
			continue
		}
		if s.Cfg.vantageOffline(vp.Name, r) {
			// Scheduled outage: the vantage runs no monitoring this
			// round but keeps its roster slot in the event stream.
			offline[i] = true
			continue
		}
		tasks = append(tasks, roundTask{vp: i})
		if vp.Extended {
			tasks = append(tasks, roundTask{vp: i, ext: true})
		}
	}
	mainPop, extPop := s.tracked, s.extRefs
	if s.restrict != nil {
		mainPop = within(mainPop, s.restrict.MainLo, s.restrict.MainHi)
		extPop = within(extPop, s.restrict.ExtLo, s.restrict.ExtHi)
	}
	stats := make([]measure.RoundStats, len(tasks))
	elapsed := make([]time.Duration, len(tasks))
	runTasks(s.roundWorkers(), len(tasks), func(k int) {
		t := tasks[k]
		v := s.Cfg.Vantages[t.vp].Name
		refs := mainPop
		if t.ext {
			refs = extPop
		}
		start := time.Now() //v6lint:wallclock RoundEvent.Elapsed is observability, not simulation state
		st, dsts := s.monitors[v].RunRound(r, date, tf, refs)
		// A restricted scenario sees only its slice's destinations; the
		// campaign's table is derived once every slice has merged
		// (ReplayPaths).
		if s.restrict == nil {
			s.recordPaths(s.DB, v, r, dsts)
		}
		stats[k] = st
		elapsed[k] = time.Since(start) //v6lint:wallclock RoundEvent.Elapsed is observability, not simulation state
	})

	// Merge each vantage's extended shard into its main stats and emit
	// one event per vantage — outage placeholders included — in roster
	// order: the same stream the serial loop produced.
	k := 0
	for i, vp := range s.Cfg.Vantages {
		if offline[i] {
			emit(observers, RoundEvent{Round: r, Date: date, Vantage: vp.Name, Outage: true})
			continue
		}
		if k >= len(tasks) || tasks[k].vp != i {
			continue
		}
		st, el := stats[k], elapsed[k]
		if k+1 < len(tasks) && tasks[k+1].vp == i && tasks[k+1].ext {
			ext := stats[k+1]
			st.Sites += ext.Sites
			st.Dual += ext.Dual
			st.Identical += ext.Identical
			st.Measured += ext.Measured
			st.FetchFails += ext.FetchFails
			st.Carried += ext.Carried
			el += elapsed[k+1]
			k++
		}
		k++
		emit(observers, RoundEvent{Round: r, Date: date, Vantage: vp.Name, Stats: st, Elapsed: el})
	}
	s.List.Advance()
	s.next++
	return nil
}

// RoundsDone returns the cursor position: how many main-study rounds
// have executed (or been fast-forwarded past).
func (s *Scenario) RoundsDone() int { return s.next }

// absorbRanked folds the current round's ranked list into the
// cumulative tracked set — "new sites ... are added to the monitoring
// list and tracked from this point onward" (Section 3) — and keeps
// the catalog's and the store's index-addressed tables covering every
// minted id (no monitor is running here, so growing is safe).
//
// The model mints site ids densely as they enter the list, so after
// an absorb every id below the mint cursor is either tracked or was
// churned away before this vantage roster ever saw it (replaced twice
// at one rank within a single churn round) and can never reappear.
// The walk is therefore over the new entrants alone (ForEachEntrant:
// mint cursor to mint cursor, skipping the churned-away-unseen), not
// over the full million-rank list every round.
func (s *Scenario) absorbRanked() {
	total := s.List.TotalSeen()
	if s.absorbed < total {
		if cap(s.tracked) == 0 {
			s.tracked = make([]measure.SiteRef, 0, total+total/4)
		}
		s.List.ForEachEntrant(alexa.SiteID(s.absorbed), func(rank int, id alexa.SiteID) {
			s.tracked = append(s.tracked, measure.SiteRef{ID: id, FirstRank: int32(rank)})
		})
		s.absorbed = total
	}
	s.Catalog.Reserve(total, 0, 0)
	s.DB.Reserve(total, ExtendedBase, s.Cfg.Extended)
}

// fillUntil sets Until on the refs a round is about to monitor that
// no earlier round has: the tracked entries absorbed since the last
// fill and, at the first fill, the extended population, each only
// inside a restricted scenario's slice. It runs in NextRound alone, so
// a fast-forward (Resume's, the coordinator's) fills nothing, and the
// first round after a resume fills every entry once. Only a ref whose
// Until is set is carried (measure.Monitor.RunRound), and the store
// hands a carried visit back when its history cannot vouch for the
// round before, so a resumed or restricted campaign needs no record of
// which rounds ran.
func (s *Scenario) fillUntil() {
	var r SiteRange
	if s.restrict != nil {
		r = *s.restrict
	}
	s.filled = s.fillFrom(s.tracked, s.filled, r.MainLo, r.MainHi)
	s.extFilled = s.fillFrom(s.extRefs, s.extFilled, r.ExtLo, r.ExtHi)
}

// fillFrom fills Until on refs[from:], only on ids in [lo, hi) when
// the scenario is restricted, and returns len(refs), the next fill's
// from. A ref's Until depends on the ref alone, and the catalogue's
// hosting memo is safe for concurrent use, so contiguous slices of the
// fresh refs fill on the round pool: round 0's million refs spread
// over the cores, and a round's few entrants stay one serial slice.
func (s *Scenario) fillFrom(refs []measure.SiteRef, from int, lo, hi alexa.SiteID) int {
	fresh := refs[from:]
	if s.restrict != nil {
		fresh = within(fresh, lo, hi)
	}
	const slice = 1 << 14
	runTasks(s.roundWorkers(), (len(fresh)+slice-1)/slice, func(k int) {
		part := fresh[k*slice : min((k+1)*slice, len(fresh))]
		for i := range part {
			part[i].Until = s.untilOf(part[i])
		}
	})
	return len(refs)
}

// untilOf returns the first round at which ref's DNS answer may differ
// from the round before, as SimFetcher.Resolve gives it: the first
// round whose date is at or past the site's adoption instant, or
// math.MaxInt32 when the site never adopts or adopts after the last
// round. Before that round the site resolves to its A record alone in
// its hosting AS, every round the same.
func (s *Scenario) untilOf(ref measure.SiteRef) int32 {
	h := s.Catalog.HostingOf(ref.ID, int(ref.FirstRank))
	r := sort.Search(len(s.dates), func(i int) bool { return h.DualAtUnix(s.dates[i].UnixNano()) })
	if r == len(s.dates) {
		return math.MaxInt32
	}
	return int32(r)
}

// fastForward advances the cursor to round `to` without monitoring:
// the ranked list churns and the tracked set accumulates exactly as
// during a monitored run, reproducing the list state a campaign had
// at that round. Resume uses it to rebuild the in-memory side of a
// checkpointed campaign.
func (s *Scenario) fastForward(to int) {
	for s.next < to && s.next < s.Cfg.Rounds {
		s.absorbRanked()
		s.List.Advance()
		s.next++
	}
}

// Commit checkpoints the campaign to b unless b's newest committed
// checkpoint already holds this campaign at the current cursor.
func (s *Scenario) Commit(b store.Backend) error {
	if meta, ok, err := b.LoadMeta(); err == nil && ok &&
		meta.NextRound == s.next && meta.ConfigHash == s.Cfg.Fingerprint() {
		return nil
	}
	return s.Checkpoint(b)
}

// Checkpoint persists the campaign's completed rounds to b as one
// checkpoint: the main measurement database plus round-cursor
// metadata.
func (s *Scenario) Checkpoint(b store.Backend) error {
	err := b.Save(s.DB, store.Meta{
		NextRound:  s.next,
		Rounds:     s.Cfg.Rounds,
		ConfigHash: s.Cfg.Fingerprint(),
		Complete:   s.next >= s.Cfg.Rounds,
		SavedAt:    time.Now().UTC(), //v6lint:wallclock checkpoint timestamp is metadata, excluded from campaign CSVs
	})
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// Fingerprint returns a stable hash of every configuration field that
// shapes the campaign's deterministic output. Resume refuses a
// checkpoint whose fingerprint differs from the offered config, since
// mixing states of two different campaigns would corrupt both.
func (c Config) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d n=%d list=%d rounds=%d ext=%d v6d=%d pcf=%g",
		c.Seed, c.NASes, c.ListSize, c.Rounds, c.Extended, c.V6DayRounds, c.PathChangeFrac)
	vps := c.Vantages
	if vps == nil {
		vps = DefaultVantages()
	}
	for _, vp := range vps {
		fmt.Fprintf(h, "|vp=%+v", vp)
	}
	// Outages fold in only when present, so every pre-existing
	// fingerprint (and the checkpoints carrying it) stays valid.
	for _, o := range c.Outages {
		fmt.Fprintf(h, "|out=%s:%d-%d", o.Vantage, o.From, o.To)
	}
	// The override structs are flat value types, so %+v is stable.
	if c.TopoOverride != nil {
		fmt.Fprintf(h, "|topo=%+v", *c.TopoOverride)
	}
	if c.Net != nil {
		fmt.Fprintf(h, "|net=%+v", *c.Net)
	}
	if c.Web != nil {
		fmt.Fprintf(h, "|web=%+v", *c.Web)
	}
	if c.Measure != nil {
		fmt.Fprintf(h, "|meas=%+v", *c.Measure)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Resume rebuilds a checkpointed campaign from b: the saved
// measurement database is loaded, a scenario is wired from cfg (which
// must fingerprint-match the checkpoint) around it as its DB, and the
// ranked list is fast-forwarded to the checkpointed round. The
// fast-forward's reservations also move rows the load left in the
// overflow maps (a snapshot whose claimed ranges were implausible for
// its bytes, a shard's slice) into the dense ranges. Continuing the
// returned scenario with RunContext produces output round-for-round
// identical to a never-interrupted campaign.
func Resume(cfg Config, b store.Backend) (*Scenario, error) {
	if cfg.Vantages == nil {
		cfg.Vantages = DefaultVantages()
	}
	meta, ok, err := b.LoadMeta()
	if err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("core: resume: no checkpoint found")
	}
	if got, want := cfg.Fingerprint(), meta.ConfigHash; got != want {
		return nil, fmt.Errorf("core: resume: config fingerprint %s does not match checkpoint's %s — same flags/seed required", got, want)
	}
	if meta.NextRound < 0 || meta.NextRound > cfg.Rounds {
		return nil, fmt.Errorf("core: resume: checkpoint round %d outside [0,%d]", meta.NextRound, cfg.Rounds)
	}
	db, err := b.Load()
	if err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	if base, ids := db.ExtendedRange(); ids > 0 && cfg.Extended > 0 && base != ExtendedBase {
		return nil, fmt.Errorf("core: resume: checkpoint database reserves extended ids from %d, the campaign from %d", base, ExtendedBase)
	}
	s, err := newScenario(cfg, db)
	if err != nil {
		return nil, err
	}
	s.fastForward(meta.NextRound)
	return s, nil
}

// Open continues the campaign cfg describes from b, the one place a
// tool chooses: it resumes b's newest committed checkpoint (Resume) and
// reports resumed, or starts fresh when b holds none. A checkpoint it
// cannot resume, another configuration's or a corrupt one, is an error.
func Open(cfg Config, b store.Backend) (s *Scenario, resumed bool, err error) {
	if _, ok, err := b.LoadMeta(); err != nil {
		return nil, false, fmt.Errorf("core: open: %w", err)
	} else if !ok {
		s, err := NewScenario(cfg)
		return s, false, err
	}
	s, err = Resume(cfg, b)
	return s, err == nil, err
}

// RunWorldV6DayContext executes the World IPv6 Day side experiment:
// the participants, monitored every 30 minutes on the day itself,
// from the vantages for which the paper had data. Only observers are
// honored among the options — the experiment is short and is not
// checkpointed; it runs into a staging database that becomes V6DayDB
// only on completion, so a cancelled run leaves V6DayDB untouched and
// can simply be re-run. Once it has completed, further calls are
// no-ops.
//
// Each participating vantage's 30-minute round sequence is one unit
// of work on the same bounded pool as the main rounds; events are
// collected per vantage and emitted in roster order, identical to the
// serial stream.
func (s *Scenario) RunWorldV6DayContext(ctx context.Context, opts ...RunOption) error {
	if s.ranV6D {
		return nil
	}
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	refs := s.V6DayParticipants()
	tf := s.tFrac(s.Timeline.V6Day)
	// No reserved range: the participants, ~0.5% of the ranked list,
	// live in the overflow maps instead of dense columns over every id.
	staging := store.NewDB()
	vps := s.v6DayVantages()
	// Fail fast across units: the first error cancels the shared
	// context so sibling vantages stop at their next round boundary
	// instead of finishing doomed work.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	events := make([][]RoundEvent, len(vps))
	errs := make([]error, len(vps))
	runTasks(s.roundWorkers(), len(vps), func(k int) {
		vp := vps[k]
		mon, err := measure.NewMonitor(s.Cfg.monitorConfig(vp.Name, s.Cfg.Seed+1), s.fetchers[vp.Name], staging)
		if err != nil {
			errs[k] = err
			cancel()
			return
		}
		for r := 0; r < s.Cfg.V6DayRounds; r++ {
			if err := ctx.Err(); err != nil {
				errs[k] = err
				return
			}
			date := s.Timeline.V6Day.Add(time.Duration(r) * 30 * time.Minute)
			start := time.Now() //v6lint:wallclock RoundEvent.Elapsed is observability, not simulation state
			st, dsts := mon.RunRound(r, date, tf, refs)
			s.recordPaths(staging, vp.Name, r, dsts)
			//v6lint:wallclock RoundEvent.Elapsed is observability, not simulation state
			events[k] = append(events[k], RoundEvent{Round: r, Date: date, Vantage: vp.Name, Stats: st, Elapsed: time.Since(start)})
		}
	})
	// Emit in roster order, stopping at the first failed vantage —
	// the same prefix of the event stream the serial loop produced
	// before it returned the error. A real failure outranks the
	// context errors it induced in sibling vantages via cancel.
	var rootCause error
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			rootCause = err
			break
		}
	}
	for k := range vps {
		if errs[k] != nil {
			if rootCause != nil {
				return rootCause
			}
			return errs[k]
		}
		emit(o.observers, events[k]...)
	}
	s.V6DayDB = staging
	s.ranV6D = true
	return nil
}
