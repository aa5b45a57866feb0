package fault

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// fastPolicy keeps backoff negligible so the loop tests run in
// milliseconds.
func fastPolicy(attempts int, timeout time.Duration) RetryPolicy {
	return RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Timeout: timeout}
}

func TestSuperviseNoProgressExhaustsBudget(t *testing.T) {
	type try struct {
		n    int
		last bool
	}
	var tries []try
	var nexts []int
	err := fastPolicy(3, time.Minute).Supervise(context.Background(), func(a *Attempt) error {
		tries = append(tries, try{a.N, a.Last})
		return fmt.Errorf("try %d failed", a.N)
	}, func(next int, err error) { nexts = append(nexts, next) })
	if err == nil || err.Error() != "try 2 failed" {
		t.Fatalf("Supervise = %v, want the last try's error", err)
	}
	if len(tries) != 3 {
		t.Fatalf("%d tries, want MaxAttempts = 3", len(tries))
	}
	for i, a := range tries {
		if a.n != i || a.last != (i == 2) {
			t.Errorf("try %d: N=%d Last=%v, want N=%d Last=%v", i, a.n, a.last, i, i == 2)
		}
	}
	if len(nexts) != 2 || nexts[0] != 1 || nexts[1] != 2 {
		t.Errorf("onRetry saw next positions %v, want [1 2]", nexts)
	}
}

func TestSuperviseProgressRenewsBudget(t *testing.T) {
	const failing = 5
	tries, retries := 0, 0
	err := fastPolicy(2, time.Minute).Supervise(context.Background(), func(a *Attempt) error {
		tries++
		if a.N == failing {
			return nil
		}
		a.Advance(a.N + 1)
		a.Advance(a.N) // a lower report never lowers the mark
		return errors.New("killed after progress")
	}, func(next int, err error) {
		retries++
		if next != 1 {
			t.Errorf("after a progressing try the next position is %d, want 1", next)
		}
	})
	if err != nil {
		t.Fatalf("a loop that keeps advancing gave up: %v", err)
	}
	if tries != failing+1 || retries != failing {
		t.Errorf("%d tries and %d retries, want %d and %d", tries, retries, failing+1, failing)
	}
}

func TestSuperviseAbandonsSilentTryWithoutOverlap(t *testing.T) {
	var inflight atomic.Int32
	tries := 0
	var fenced bool
	err := fastPolicy(2, 10*time.Millisecond).Supervise(context.Background(), func(a *Attempt) error {
		tries++
		if n := inflight.Add(1); n != 1 {
			t.Errorf("try %d started with %d tries in flight", a.N, n)
		}
		defer inflight.Add(-1)
		if a.N > 0 {
			return nil
		}
		a.Beat()
		select {
		case <-a.Abandoned():
		case <-time.After(10 * time.Second):
			t.Fatal("silent try never abandoned")
		}
		fenced = a.Fenced()
		// A try that is slow to wind down still finishes before its
		// successor starts.
		time.Sleep(20 * time.Millisecond)
		return errors.New("abandoned")
	}, nil)
	if err != nil {
		t.Fatalf("Supervise = %v", err)
	}
	if tries != 2 || !fenced {
		t.Errorf("tries=%d fenced=%v, want 2 tries with the first fenced", tries, fenced)
	}
}

func TestSuperviseWatchesOnlyBeatingSilence(t *testing.T) {
	err := fastPolicy(1, 200*time.Millisecond).Supervise(context.Background(), func(a *Attempt) error {
		for end := time.Now().Add(time.Second); time.Now().Before(end); time.Sleep(2 * time.Millisecond) {
			a.Beat()
		}
		if a.Fenced() {
			return errors.New("a try that keeps beating was abandoned")
		}
		return nil
	}, nil)
	if err != nil {
		t.Error(err)
	}
	err = fastPolicy(1, time.Millisecond).Supervise(context.Background(), func(a *Attempt) error {
		time.Sleep(100 * time.Millisecond)
		if a.Fenced() {
			return errors.New("a try that never beat was abandoned")
		}
		return nil
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSuperviseStopsOnPermanentAndCancel(t *testing.T) {
	cause := errors.New("corrupt frame")
	tries := 0
	noRetry := func(int, error) { t.Error("onRetry called for a failure that must not be retried") }
	err := fastPolicy(5, time.Minute).Supervise(context.Background(), func(*Attempt) error {
		tries++
		return Permanent(cause)
	}, noRetry)
	if tries != 1 || !errors.Is(err, cause) || err.Error() != cause.Error() {
		t.Errorf("permanent: %d tries, err %v; want 1 try returning %v", tries, err, cause)
	}

	ctx, cancel := context.WithCancel(context.Background())
	tries = 0
	err = fastPolicy(5, time.Minute).Supervise(ctx, func(*Attempt) error {
		tries++
		cancel()
		return errors.New("interrupted")
	}, noRetry)
	if tries != 1 || err == nil {
		t.Errorf("cancel: %d tries, err %v; want 1 try and an error", tries, err)
	}
}
