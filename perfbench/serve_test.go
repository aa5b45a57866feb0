package main

import (
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"v6web/internal/daemon"
)

// A synthetic open-loop schedule: requests due every 10 ms, the third
// one stalls the server for 100 ms, and the three queued behind it
// wait. Latency counts from the due time, so the wait shows in each.
func TestLatencyCountsFromDueTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	var gen []reqSample
	done := []float64{1, 11, 120, 121, 122, 123}
	for i, d := range done {
		due := float64(10 * i)
		gen = append(gen, reqSample{target: i % 2, due: at(due), sent: at(due + 0.5), done: at(d), status: http.StatusOK, bytes: 100})
	}
	gen = append(gen, reqSample{target: 0, due: at(60), sent: at(62), done: at(63), err: errConnBroken})

	sum := summarize(gen, 2)
	// Latencies from due: 1, 1, 100, 91, 82, 73.
	if sum.n != 6 || sum.failed != 1 {
		t.Fatalf("n=%d failed=%d, want 6 and 1", sum.n, sum.failed)
	}
	if want := (73.0 + 82) / 2; math.Abs(sum.p50-want) > 1e-9 {
		t.Errorf("p50 = %v ms, want %v", sum.p50, want)
	}
	if want := 82.0; math.Abs(sum.perTarget[0]-want) > 1e-9 { // targets 0: 1, 100, 82
		t.Errorf("target 0 p50 = %v ms, want %v", sum.perTarget[0], want)
	}
	// Lateness is sent minus due, failed requests included.
	if math.Abs(sum.lateMax-2) > 1e-9 {
		t.Errorf("lateness max = %v ms, want 2", sum.lateMax)
	}
	if sum.bytesPerResp != 100 {
		t.Errorf("bytes per response = %v, want 100", sum.bytesPerResp)
	}
}

// The generator keeps sending on schedule while the server stalls on
// one request — it never waits for replies — over a single connection.
func TestOpenLoopSendsOnScheduleThroughAStall(t *testing.T) {
	const stall, interval = 300 * time.Millisecond, 10 * time.Millisecond
	var served atomic.Int64
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	conn, err := dialPipe(srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.close()
	stop := make(chan struct{})
	start := time.Now()
	time.AfterFunc(3*stall, func() { close(stop) })
	gen := conn.openLoop([]target{{"a", "/a"}, {"b", "/b"}}, start, interval, stop)

	if len(gen) < 40 {
		t.Fatalf("sent %d requests in %v, want about %d", len(gen), 3*stall, int(3*stall/interval))
	}
	if c := conns.Load(); c != 1 {
		t.Errorf("generator opened %d connections, want 1", c)
	}
	for i, s := range gen {
		if s.err != nil || s.status != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", i, s.status, s.err)
		}
	}
	// The request due right after the stalled one waited behind it.
	if lat := gen[5].latency(); lat < stall-5*interval {
		t.Errorf("request queued behind the stall has latency %v, want at least %v", lat, stall-5*interval)
	}
	// A closed loop would have been a full stall late; this one is not.
	sum := summarize(gen, 2)
	if late := time.Duration(sum.lateMax * float64(time.Millisecond)); late > stall/2 {
		t.Errorf("generator ran %v late, want well under the %v stall", late, stall)
	}
}

func TestTimelineFromEvents(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ev := func(kind string, round, ms int) sseEvent {
		return sseEvent{daemon.Event{Kind: kind, Round: round, Sites: 10, Dual: 2, Measured: 1, Elapsed: 40}, at(ms)}
	}
	events := []sseEvent{
		ev("version", 0, 0),
		ev("round", 0, 90), ev("round", 0, 100), // round 0 computes 0..100
		ev("version", 1, 130), // published 30 ms after its last event
		ev("round", 1, 200), ev("round", 1, 210),
		ev("version", 2, 260),
		ev("v6day-round", 0, 300),
		ev("version", 2, 400), // the completed version
		ev("complete", 2, 410),
	}
	tl := timeline(events, 2)
	if len(tl.fresh) != 2 || tl.fresh[0] != 30 || tl.fresh[1] != 50 {
		t.Errorf("publish lags = %v ms, want [30 50]", tl.fresh)
	}
	if len(tl.rounds) != 2 || tl.rounds[0][1].Sub(tl.rounds[0][0]) != 100*time.Millisecond ||
		tl.rounds[1][1].Sub(tl.rounds[1][0]) != 80*time.Millisecond {
		t.Errorf("round intervals = %v, want 100ms and 80ms", tl.rounds)
	}
	if got := tl.tail[1].Sub(tl.tail[0]); got != 150*time.Millisecond {
		t.Errorf("tail = %v, want 150ms (first round-2 version to complete)", got)
	}
	if tl.main.visits != 40 || tl.v6.visits != 10 || tl.main.busy != 160*time.Millisecond {
		t.Errorf("tallies main=%+v v6=%+v", tl.main, tl.v6)
	}
}
