package shard

// Teardown hygiene for the coordinator's wire shim: a graceful
// interrupt must release a fault-stalled stream immediately (not after
// the liveness timeout), and consumeFrames must never strand its
// reader goroutine on a channel send after an early return. Both are
// goroutine-leak bugs a long-running daemon would accumulate.

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"v6web/internal/fault"
)

// blockConn is a workerConn whose stream never delivers: Read parks
// until kill, like a worker wedged behind a hung wire.
type blockConn struct {
	unblock chan struct{}
	once    sync.Once
}

func newBlockConn() *blockConn { return &blockConn{unblock: make(chan struct{})} }

func (b *blockConn) Read(p []byte) (int, error) { <-b.unblock; return 0, io.EOF }
func (b *blockConn) interrupt()                 {}
func (b *blockConn) kill()                      { b.once.Do(func() { close(b.unblock) }) }
func (b *blockConn) wait() error                { return nil }

// scriptConn replays a canned frame stream; teardown calls are no-ops
// so the test isolates consumeFrames' own goroutine hygiene.
type scriptConn struct{ r io.Reader }

func (s *scriptConn) Read(p []byte) (int, error) { return s.r.Read(p) }
func (s *scriptConn) interrupt()                 {}
func (s *scriptConn) kill()                      {}
func (s *scriptConn) wait() error                { return nil }

// waitGoroutinesBack polls until the goroutine count returns to the
// baseline (other tests' leftovers may still be winding down, so a
// small grace interval, not an instant assert).
func waitGoroutinesBack(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A context cancel mid-WireHang must return promptly — the interrupt
// releases the stall — rather than waiting out the full liveness
// timeout, and the reader goroutine must exit with it.
func TestHangReleasedOnInterrupt(t *testing.T) {
	base := runtime.NumGoroutine()
	bc := newBlockConn()
	fc := newFaultConn(bc, fault.WireFault{Kind: fault.WireHang, Offset: 0})
	defer func() {
		fc.kill()
		fc.wait()
	}()

	ctx, cancel := context.WithCancel(context.Background())
	opt := Options{Log: io.Discard}

	done := make(chan error, 1)
	go func() {
		// A nil attempt has no watchdog: if the interrupt does not
		// release the hang, nothing else can, and the prompt-return
		// assertion fails.
		_, _, err := consumeFrames(ctx, nil, fc, Spec{}, opt)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("interrupted hang returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("consumeFrames still stalled long after the interrupt")
	}
	fc.kill()
	waitGoroutinesBack(t, base)
}

// A delay fault pending when the interrupt lands must likewise release
// instead of sleeping out its injected delay.
func TestDelayReleasedOnInterrupt(t *testing.T) {
	base := runtime.NumGoroutine()
	bc := newBlockConn()
	fc := newFaultConn(bc, fault.WireFault{Kind: fault.WireDelay, Offset: 0, Delay: time.Hour})
	done := make(chan struct{})
	go func() {
		fc.Read(make([]byte, 1))
		close(done)
	}()
	fc.interrupt()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("interrupt did not release the delayed read")
	}
	bc.kill()
	waitGoroutinesBack(t, base)
}

// After consumeFrames returns on a permanent error, a worker that
// already streamed more than a channel buffer of frames must not
// strand the reader goroutine on its send.
func TestReaderGoroutineExitsAfterEarlyReturn(t *testing.T) {
	base := runtime.NumGoroutine()
	var stream bytes.Buffer
	// First frame: unknown type — consumeFrames returns immediately.
	if err := writeFrame(&stream, 0xEE, nil); err != nil {
		t.Fatal(err)
	}
	// Then far more frames than the channel buffer holds.
	for i := 0; i < 64; i++ {
		if err := writeFrame(&stream, frameRound, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	opt := Options{Log: io.Discard}
	_, _, err := consumeFrames(context.Background(), nil, &scriptConn{r: &stream}, Spec{}, opt)
	if err == nil {
		t.Fatal("unknown frame type must fail the attempt")
	}
	waitGoroutinesBack(t, base)
}
