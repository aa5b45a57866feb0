package fault

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// RetryPolicy is the repo's one retry policy: a budget of tries,
// capped doubling backoff between them, and a per-attempt liveness
// timeout. Supervise runs the retry loop under it for the shard
// coordinator's shard attempts, the worker's coordinator dials and the
// daemon's campaign restarts.
type RetryPolicy struct {
	// MaxAttempts bounds the tries of one budget, the first included
	// (see Supervise for what renews a budget).
	MaxAttempts int
	// BaseDelay is the backoff before a budget's second try; each
	// later try of the budget waits twice as long, up to MaxDelay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Timeout bounds an attempt's silence: one that has beaten is
	// abandoned after Timeout plus the backoff that preceded it with
	// no further beat. A worker's coordinator dial uses it as the dial
	// timeout.
	Timeout time.Duration
}

// WithDefaults fills zero fields with the defaults, which mirror the
// pre-fault-layer constants: three total attempts (the old
// MaxRetries=2), 250ms doubling to at most 30s of backoff, and five
// minutes of tolerated frame silence (the old FrameTimeout).
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 250 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 30 * time.Second
	}
	if p.Timeout <= 0 {
		p.Timeout = 5 * time.Minute
	}
	return p
}

// backoff returns the pause before the try at position k of a budget
// (0-based; the first try never waits).
func (p RetryPolicy) backoff(k int) time.Duration {
	if k <= 0 {
		return 0
	}
	d := p.BaseDelay
	for i := 1; i < k && d < p.MaxDelay; i++ {
		d *= 2
	}
	return min(d, p.MaxDelay)
}

// wait sleeps the backoff before position k, returning early with the
// context's error if it is canceled first.
func (p RetryPolicy) wait(ctx context.Context, k int) error {
	t := time.NewTimer(p.backoff(k))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Permanent marks err as one retrying cannot fix: Supervise returns it
// at once.
func Permanent(err error) error { return &permanentError{err} }

type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Attempt is one try under Supervise, through which the try reports
// liveness (Beat) and progress (Advance). A nil *Attempt is
// unsupervised: never abandoned, its beats and advances go nowhere.
type Attempt struct {
	// N numbers the tries from 0 across budgets; it keys per-attempt
	// fault draws, so every retry draws afresh.
	N int
	// Last marks a budget's final try: unless it advances, its failure
	// ends the loop. Fault injection spares it.
	Last bool

	deadline  time.Duration
	beat      chan struct{}
	abandoned chan struct{}
	high      atomic.Int64
}

// Beat reports that the try is alive. The first beat arms the
// attempt's watchdog; a try that never beats is not watched.
func (a *Attempt) Beat() {
	if a == nil {
		return
	}
	select {
	case a.beat <- struct{}{}:
	default: // a beat is already pending
	}
}

// Advance reports progress n, such as rounds completed.
func (a *Attempt) Advance(n int) {
	for a != nil {
		old := a.high.Load()
		if int64(n) <= old || a.high.CompareAndSwap(old, int64(n)) {
			return
		}
	}
}

// Abandoned is closed when the watchdog gives up on the attempt; the
// try should then return.
func (a *Attempt) Abandoned() <-chan struct{} {
	if a == nil {
		return nil
	}
	return a.abandoned
}

// Fenced reports whether the attempt was abandoned. Work the try left
// running, such as a round that cannot be cancelled, checks it before
// every write to state a later attempt may already own.
func (a *Attempt) Fenced() bool {
	select {
	case <-a.Abandoned():
		return true
	default:
		return false
	}
}

// watch is the attempt's watchdog goroutine: the first beat arms a
// timer of a.deadline, every later beat restarts it, and its expiry
// closes abandoned. It closes done on return.
func (a *Attempt) watch(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	select {
	case <-a.beat:
	case <-stop:
		return
	}
	t := time.NewTimer(a.deadline)
	defer func() { t.Stop() }()
	for {
		select {
		case <-a.beat:
			t.Stop()
			t = time.NewTimer(a.deadline)
		case <-t.C:
			close(a.abandoned)
			return
		case <-stop:
			return
		}
	}
}

// Supervise is the repo's one retry loop: it calls try until a try
// returns nil, backing off between tries. It gives up, returning the
// error, on a Permanent error, on a canceled ctx, and once MaxAttempts
// tries of one budget have failed. A failed try that raised the
// Advance high-water mark above every earlier try's starts a fresh
// budget with itself as the first try, so a loop that keeps
// progressing never gives up.
//
// A try's watchdog deadline is Timeout plus the backoff that preceded
// the try, growing with each try of a budget. The next try starts only
// after the previous one returned: attempts never overlap. onRetry, if
// not nil, sees each failure that will be retried, with the next try's
// position in its budget (1 for a budget's second try).
func (p RetryPolicy) Supervise(ctx context.Context, try func(*Attempt) error, onRetry func(next int, err error)) error {
	p = p.WithDefaults()
	var high int64 // the highest progress any try reported
	k := 0         // the next try's position in its budget
	for n := 0; ; n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		a := &Attempt{N: n, Last: k == p.MaxAttempts-1, deadline: p.Timeout + p.backoff(k),
			beat: make(chan struct{}, 1), abandoned: make(chan struct{})}
		err := a.run(try)
		var pe *permanentError
		if err == nil || errors.As(err, &pe) || ctx.Err() != nil {
			return err
		}
		if h := a.high.Load(); h > high {
			high, k = h, 0
		}
		if k++; k >= p.MaxAttempts {
			return err
		}
		if onRetry != nil {
			onRetry(k, err)
		}
		if err := p.wait(ctx, k); err != nil {
			return err
		}
	}
}

// run calls try under the attempt's watchdog and returns once both
// have finished.
func (a *Attempt) run(try func(*Attempt) error) error {
	stop, done := make(chan struct{}), make(chan struct{})
	go a.watch(stop, done)
	defer func() {
		close(stop)
		<-done
	}()
	return try(a)
}
