package main

// The serve workload: v6mond (internal/daemon) runs a 3x-size
// baseline-2011 campaign while a load generator inside this process
// reads it over loopback HTTP. The generator uses two connections in
// total — one SSE stream of the campaign's events and one keep-alive
// connection carrying an open-loop request mix — so it measures the
// daemon, not a pool of client connections.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"v6web/internal/daemon"
	"v6web/internal/scenario"
	"v6web/internal/store"
)

const (
	serveName = "bench"
	servePack = "baseline-2011"
	// serveRate is the generator's fixed request rate. With one
	// request connection, pushing toward saturation would measure that
	// connection rather than the daemon.
	serveRate = 200
	// readyPoll is how often set-up polls /readyz.
	readyPoll = 2 * time.Millisecond
)

// target is one endpoint of the request mix.
type target struct{ name, path string }

// serveTargets is the request mix, sent in equal shares.
func serveTargets() []target {
	base := "/api/campaigns/" + serveName
	return []target{
		{"report", base + "/report"},
		{"table8", base + "/exhibits/table8"},
		{"fig1", base + "/exhibits/fig1"},
		{"status", base},
	}
}

// liveDaemon is a daemon running in this process plus the keep-alive
// connection that found it ready.
type liveDaemon struct {
	d      *daemon.Daemon
	dir    string
	conn   *pipeConn
	cancel context.CancelFunc
	done   chan error // Run's result

	stopOnce sync.Once
	stopErr  error
}

// startDaemon starts a daemon with default options serving one
// campaign from dir and returns once /readyz answers 200. onAddr runs
// as soon as the daemon listens, before readiness.
func startDaemon(ctx context.Context, dir string, sets scenario.Overrides, onAddr func(addr string) error) (*liveDaemon, error) {
	d := daemon.New(daemon.Options{Dir: dir, Addr: "127.0.0.1:0"})
	if _, err := d.Add(serveName, servePack, sets); err != nil {
		return nil, err
	}
	dctx, cancel := context.WithCancel(ctx)
	ld := &liveDaemon{d: d, dir: dir, cancel: cancel, done: make(chan error, 1)}
	go func() { ld.done <- d.Run(dctx) }()
	fail := func(err error) (*liveDaemon, error) {
		ld.stop()
		return nil, err
	}
	for d.Addr() == "" {
		select {
		case err := <-ld.done:
			cancel()
			return nil, fmt.Errorf("daemon stopped before listening: %v", err)
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(readyPoll):
		}
	}
	if err := onAddr(d.Addr()); err != nil {
		return fail(err)
	}
	conn, err := dialPipe(d.Addr())
	if err != nil {
		return fail(err)
	}
	ld.conn = conn
	for {
		status, _, err := conn.get("/readyz")
		if err != nil {
			return fail(fmt.Errorf("readyz: %w", err))
		}
		if status == http.StatusOK {
			return ld, nil
		}
		select {
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(readyPoll):
		}
	}
}

// stop drains the daemon and waits for it to return; later calls
// return the first call's result.
func (ld *liveDaemon) stop() error {
	ld.stopOnce.Do(func() {
		if ld.conn != nil {
			ld.conn.close()
		}
		ld.cancel()
		ld.stopErr = <-ld.done
	})
	return ld.stopErr
}

func (b *bench) runServe(ctx context.Context) error {
	sets := b.overrides(servePack, "list.size=60000", "list.extended=12000")
	comp, err := scenario.LoadCompiled(servePack, sets)
	if err != nil {
		return err
	}
	cfg := comp.Config
	fmt.Fprintf(b.log, "input: pack=%s seed=%d ases=%d list=%d extended=%d rounds=%d v6day_rounds=%d rate=%d/s\n",
		servePack, cfg.Seed, cfg.NASes, cfg.ListSize, cfg.Extended, cfg.Rounds, cfg.V6DayRounds, serveRate)

	// Set-up passes: daemon start to /readyz 200, each in a fresh data
	// directory, with the event stream subscribed before readiness so
	// no round is missed. All but the last daemon are drained right
	// away; the last one serves the measured campaign.
	type live struct {
		ld  *liveDaemon
		sse *sseReader
	}
	pass := 0
	cur, err := setupPasses(b, func(id int) (l live, err error) {
		dir := filepath.Join(b.data, fmt.Sprintf("daemon-%d", pass))
		pass++
		_, err = b.tr.time("daemon.start", id, func(int) (err error) {
			l.ld, err = startDaemon(ctx, dir, sets, func(addr string) (err error) {
				l.sse, err = openSSE(ctx, addr)
				return err
			})
			return err
		})
		return l, err
	}, func(l live) {
		l.sse.close()
		if err := l.ld.stop(); err != nil {
			b.problem("draining a set-up daemon: %v", err)
		}
		os.RemoveAll(l.ld.dir)
	})
	if err != nil {
		return err
	}
	ld, sse := cur.ld, cur.sse
	defer ld.stop()
	defer sse.close()
	b.attempted++ // the event stream

	// Serve from readiness until the campaign completes.
	start := now()
	ready := start.wall
	var ckw *ckWatch
	if b.tr.on {
		ckw = watchCheckpoints(filepath.Join(ld.dir, "campaigns", serveName, "checkpoints"))
		defer ckw.close()
	}
	stopGen := make(chan struct{})
	genDone := make(chan []reqSample, 1)
	go func() {
		genDone <- ld.conn.openLoop(serveTargets(), ready, time.Second/serveRate, stopGen)
	}()
	var complete time.Time
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for complete.IsZero() {
		var err error
		select {
		case complete = <-sse.complete:
		case <-tick.C:
			if st := ld.d.Campaigns()[0].State(); st == daemon.StateFailed {
				err = errors.New("campaign failed")
			}
		case err = <-ld.done:
			ld.done <- err // for stop
			err = fmt.Errorf("daemon stopped before the campaign completed: %v", err)
		case <-ctx.Done():
			err = ctx.Err()
		}
		if err != nil {
			close(stopGen)
			<-genDone
			return err
		}
	}
	_, cpu := start.since()
	if ckw != nil {
		ckw.close()
	}
	close(stopGen)
	gen := <-genDone
	b.setE2E("campaign_cpu_s", cpu)
	b.setLayer("wall.campaign_s", complete.Sub(ready).Seconds())
	b.logf("campaign phase: %.3fs CPU, %.3fs wall", cpu, complete.Sub(ready).Seconds())

	// The served final report and the daemon's own counters, on the
	// same connection.
	served, err := ld.conn.getOK("/api/campaigns/" + serveName + "/report")
	if b.op(err) != nil {
		return fmt.Errorf("final report: %w", err)
	}
	var counters struct {
		Campaigns []struct {
			Restarts uint64 `json:"restarts"`
		} `json:"campaigns"`
		Sheds uint64 `json:"sheds"`
	}
	body, err := ld.conn.getOK("/api/campaigns")
	if err == nil {
		err = json.Unmarshal(body, &counters)
	}
	if b.op(err) != nil || len(counters.Campaigns) != 1 {
		return fmt.Errorf("campaign status: %d campaigns, %v", len(counters.Campaigns), err)
	}
	// Each restart is a failed campaign attempt.
	restarts := counters.Campaigns[0].Restarts
	b.attempted += 1 + int64(restarts)
	b.failed += int64(restarts)
	var heap runtime.MemStats
	if b.tr.on {
		runtime.GC()
		runtime.ReadMemStats(&heap)
	}
	sse.close()
	if err := ld.stop(); err != nil {
		return fmt.Errorf("draining daemon: %w", err)
	}
	events := sse.events

	// Every generated request must have succeeded.
	failed := 0
	for _, s := range gen {
		if s.err != nil || s.status != http.StatusOK {
			failed++
		}
	}
	b.attempted += int64(len(gen))
	b.failed += int64(failed)
	if failed > 0 {
		b.problem("%d of %d generated requests failed (non-200 or transport error)", failed, len(gen))
	}

	// `v6report -db` over the daemon's final CSVs must print exactly
	// what the daemon served. Loading the CSVs takes seconds, so it is
	// done once; the repeated passes are the from-memory report pass
	// the batch workloads time.
	campaignDir := filepath.Join(ld.dir, "campaigns", serveName)
	var main, v6 *store.DB
	if _, err := b.tr.time("store.Load", 0, func(int) (err error) {
		if main, err = store.Load(filepath.Join(campaignDir, store.SnapMain)); err != nil {
			return err
		}
		v6, err = store.Load(filepath.Join(campaignDir, store.SnapV6Day))
		return err
	}); b.op(err) != nil {
		return err
	}
	rep := b.reportPasses(func(id int) []byte { return b.studyReport(id, main, v6) })
	if !bytes.Equal(rep, served) {
		b.problem("served final report (%d bytes) differs from v6report -db over the final CSVs (%d bytes)", len(served), len(rep))
	}
	tl := timeline(events, cfg.Rounds)
	f := facts{}
	f.digest("report_sha256", served)
	f.counts("main", main)
	f.counts("v6day", v6)
	f.setInt("main.visits", tl.main.visits)
	f.setInt("v6day.visits", tl.v6.visits)
	if err := b.checkFacts(b.factsKey("serve "+servePack, cfg.Seed), f); err != nil {
		return err
	}
	if len(tl.fresh) != cfg.Rounds {
		b.problem("event stream showed %d published rounds, want %d", len(tl.fresh), cfg.Rounds)
	}
	if sse.dropped > 0 {
		b.failed++ // the event stream lost events
	}
	fmt.Fprintf(b.log, "serve: %d requests (%d failed), %d events, %d lag notices (%d dropped), restarts %d, sheds %d\n",
		len(gen), failed, len(events), sse.lagNotices, sse.dropped, restarts, counters.Sheds)
	if !b.tr.on {
		return nil
	}
	ckw.report(b)
	b.serveLayer(gen, tl, ready, complete, sse.dropped, restarts, counters.Sheds)
	b.storeLayer(main, v6, main)
	sites, _, _, _ := main.Counts()
	b.heapMetrics(heap.HeapAlloc, sites)
	b.setLayer("report.bytes", float64(len(rep)))
	return nil
}

// serveLayer derives the daemon, http, core and measure metrics from
// the generator's samples and the event stream, and records their
// spans: one per request, labelled by endpoint, and the round, publish
// and tail intervals under the campaign span.
func (b *bench) serveLayer(gen []reqSample, tl serveTimeline, ready, complete time.Time, dropped, restarts, sheds uint64) {
	camp := b.tr.record("campaign", 0, ready, complete)
	for _, iv := range tl.rounds {
		b.tr.record("daemon.round", camp, iv[0], iv[1])
	}
	for _, iv := range tl.publishes {
		b.tr.record("daemon.publish", camp, iv[0], iv[1])
	}
	if !tl.tail[0].IsZero() {
		b.tr.record("daemon.tail", camp, tl.tail[0], tl.tail[1])
	}
	targets := serveTargets()
	for _, s := range gen {
		b.tr.record("GET "+targets[s.target].name, camp, s.due, s.done)
	}

	var roundsS float64
	var roundMs []float64
	for _, iv := range tl.rounds {
		d := iv[1].Sub(iv[0])
		roundsS += d.Seconds()
		roundMs = append(roundMs, ms(d))
	}
	b.roundLayer(&tl.main, &tl.v6, roundsS)
	b.setLayer("daemon.freshness_ms", median(tl.fresh))
	p90, _ := percentile(tl.fresh, 90)
	b.setLayer("daemon.publish_p90_ms", p90)
	b.setLayer("daemon.round_p50_ms", median(roundMs))
	if !tl.tail[0].IsZero() {
		b.setLayer("daemon.tail_s", tl.tail[1].Sub(tl.tail[0]).Seconds())
	}
	b.setLayer("daemon.restarts", float64(restarts))
	b.setLayer("daemon.sheds", float64(sheds))
	b.setLayer("daemon.sse_dropped", float64(dropped))

	sum := summarize(gen, len(targets))
	b.setLayer("http.req_p50_ms", sum.p50)
	b.setLayer("http.req_p99_ms", sum.p99)
	b.setLayer("http.req_samples", float64(sum.n))
	for i, t := range targets {
		b.setLayer("http."+t.name+"_p50_ms", sum.perTarget[i])
	}
	b.setLayer("http.bytes_per_resp", sum.bytesPerResp)
	b.setLayer("http.sent", float64(len(gen)))
	b.setLayer("http.failed", float64(sum.failed))
	b.setLayer("http.late_p99_ms", sum.lateP99)
	b.setLayer("http.late_max_ms", sum.lateMax)
	b.logf("http: %d samples, p50 %.3f ms, p%g %.3f ms with %d samples beyond; lateness p99 %.3f ms, max %.3f ms",
		sum.n, sum.p50, sum.tailP, sum.tail, sum.tailBeyond, sum.lateP99, sum.lateMax)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// p99 returns the 99th percentile of xs, or 0 when fewer than
// minBeyond samples lie beyond it (under 1000 samples, which only the
// tiny test sizes produce).
func p99(xs []float64) float64 {
	if v, beyond := percentile(xs, 99); beyond >= minBeyond {
		return v
	}
	return 0
}

// genSummary condenses the generator's samples. Latency runs from each
// request's due time; lateness is how long after its due time the
// generator actually sent it. tail is the highest percentile with at
// least minBeyond samples beyond it; the p99 fields are 0 unless p99
// is one.
type genSummary struct {
	n, failed    int
	p50, p99     float64
	tailP, tail  float64
	tailBeyond   int
	perTarget    []float64
	bytesPerResp float64
	lateP99      float64
	lateMax      float64
}

func summarize(gen []reqSample, targets int) genSummary {
	sum := genSummary{perTarget: make([]float64, targets)}
	var lat, late []float64
	per := make([][]float64, targets)
	var bytes int
	for _, s := range gen {
		late = append(late, ms(s.lateness()))
		if s.err != nil || s.status != http.StatusOK {
			sum.failed++
			continue
		}
		lat = append(lat, ms(s.latency()))
		per[s.target] = append(per[s.target], ms(s.latency()))
		bytes += s.bytes
	}
	sum.n = len(lat)
	sum.p50 = median(lat)
	sum.tailP, sum.tail, sum.tailBeyond, _ = tail(lat)
	sum.p99 = p99(lat)
	for i := range per {
		sum.perTarget[i] = median(per[i])
	}
	if sum.n > 0 {
		sum.bytesPerResp = float64(bytes) / float64(sum.n)
	}
	sum.lateP99 = p99(late)
	if len(late) > 0 {
		sum.lateMax = sorted(late)[len(late)-1]
	}
	return sum
}

// --- the request connection -------------------------------------------

// pipeConn is one keep-alive HTTP/1.1 connection. Requests are
// pipelined: each is written when it is due, whatever replies are
// still outstanding, and replies are read back in order.
type pipeConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialPipe(addr string) (*pipeConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &pipeConn{c: c, br: bufio.NewReader(c)}, nil
}

func (p *pipeConn) close() { p.c.Close() }

func (p *pipeConn) write(path string) error {
	_, err := fmt.Fprintf(p.c, "GET %s HTTP/1.1\r\nHost: perfbench\r\n\r\n", path)
	return err
}

func (p *pipeConn) read() (int, []byte, error) {
	resp, err := http.ReadResponse(p.br, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// get sends one request and waits for its reply.
func (p *pipeConn) get(path string) (int, []byte, error) {
	if err := p.write(path); err != nil {
		return 0, nil, err
	}
	return p.read()
}

// getOK is get for a reply that must be a 200.
func (p *pipeConn) getOK(path string) ([]byte, error) {
	status, body, err := p.get(path)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, status)
	}
	return body, err
}

// reqSample is one generated request.
type reqSample struct {
	target          int
	due, sent, done time.Time
	status, bytes   int
	err             error
}

// latency runs from when the request was due, so a stall's wait on
// every request queued behind it counts.
func (s reqSample) latency() time.Duration { return s.done.Sub(s.due) }

// lateness is how far behind its schedule the generator sent it.
func (s reqSample) lateness() time.Duration { return s.sent.Sub(s.due) }

// maxInFlight bounds requests written but not yet answered: a minute
// at the generator's rate. Beyond it the writer waits, which shows up
// as lateness.
const maxInFlight = 60 * serveRate

var errConnBroken = errors.New("connection broken by an earlier error")

// openLoop sends requests for targets round-robin, the i-th due at
// start + i*interval, until stop is closed, and returns every request
// with its timings once all replies are in. It is an open loop: a
// request is sent when due whether or not earlier replies arrived.
func (p *pipeConn) openLoop(targets []target, start time.Time, interval time.Duration, stop <-chan struct{}) []reqSample {
	inflight := make(chan reqSample, maxInFlight)
	replies := make(chan []reqSample, 1)
	go func() {
		var done []reqSample
		broken := false
		for s := range inflight {
			if s.err == nil && !broken {
				var body []byte
				s.status, body, s.err = p.read()
				s.bytes = len(body)
				broken = s.err != nil
			} else if s.err == nil {
				s.err = errConnBroken
			}
			s.done = time.Now()
			done = append(done, s)
		}
		replies <- done
	}()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	broken := false
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				close(inflight)
				return <-replies
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				close(inflight)
				return <-replies
			default:
			}
		}
		s := reqSample{target: i % len(targets), due: due, sent: time.Now()}
		if broken {
			s.err = errConnBroken
		} else if s.err = p.write(targets[s.target].path); s.err != nil {
			broken = true
		}
		inflight <- s
	}
}

// --- the event stream ---------------------------------------------------

// sseEvent is one event of the campaign's stream, with its arrival.
type sseEvent struct {
	daemon.Event
	at time.Time
}

// sseReader consumes the campaign's SSE stream on its own connection.
type sseReader struct {
	cancel     context.CancelFunc
	complete   chan time.Time // the "complete" event's arrival
	finished   chan struct{}
	events     []sseEvent // read after finished closes
	lagNotices int
	dropped    uint64
}

func openSSE(ctx context.Context, addr string) (*sseReader, error) {
	ctx, cancel := context.WithCancel(ctx)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/api/campaigns/"+serveName+"/events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("event stream: status %d", resp.StatusCode)
	}
	r := &sseReader{cancel: cancel, complete: make(chan time.Time, 1), finished: make(chan struct{})}
	go func() {
		defer close(r.finished)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			at := time.Now()
			var n uint64
			switch {
			case strings.HasPrefix(line, "data: "):
				var ev daemon.Event
				if json.Unmarshal([]byte(line[len("data: "):]), &ev) != nil {
					continue
				}
				r.events = append(r.events, sseEvent{ev, at})
				if ev.Kind == "complete" {
					r.complete <- at
				}
			case strings.HasPrefix(line, ": lag"):
				if _, err := fmt.Sscanf(line, ": lag — %d events dropped", &n); err == nil {
					r.lagNotices++
					r.dropped += n
				}
			}
		}
	}()
	return r, nil
}

// close ends the stream and waits for the reader to finish.
func (r *sseReader) close() {
	r.cancel()
	<-r.finished
}

// serveTimeline is what the event stream says about the campaign.
type serveTimeline struct {
	main, v6  roundTally
	rounds    [][2]time.Time // compute: previous version to the round's last event
	publishes [][2]time.Time // publish: the round's last event to its version
	fresh     []float64      // publish lags, ms
	tail      [2]time.Time   // last main-round version to complete
}

func timeline(events []sseEvent, rounds int) serveTimeline {
	var tl serveTimeline
	lastRound := make(map[int]time.Time)    // main round -> its last round event
	firstVersion := make(map[int]time.Time) // completed rounds -> first version event
	var completeAt time.Time
	for _, ev := range events {
		switch ev.Kind {
		case "round", "v6day-round":
			t := &tl.main
			if ev.Kind == "v6day-round" {
				t = &tl.v6
			} else {
				lastRound[ev.Round] = ev.at
			}
			if !ev.Outage {
				t.visits += int64(ev.Sites)
				t.dual += int64(ev.Dual)
				t.measured += int64(ev.Measured)
				t.busy += time.Duration(ev.Elapsed * float64(time.Millisecond))
			}
		case "version":
			if _, ok := firstVersion[ev.Round]; !ok {
				firstVersion[ev.Round] = ev.at
			}
		case "complete":
			completeAt = ev.at
		}
	}
	var order []int
	for r := range lastRound {
		order = append(order, r)
	}
	sort.Ints(order)
	for _, r := range order {
		end := lastRound[r]
		if begin, ok := firstVersion[r]; ok {
			tl.rounds = append(tl.rounds, [2]time.Time{begin, end})
		}
		if v, ok := firstVersion[r+1]; ok {
			tl.publishes = append(tl.publishes, [2]time.Time{end, v})
			tl.fresh = append(tl.fresh, ms(v.Sub(end)))
		}
	}
	if v, ok := firstVersion[rounds]; ok && !completeAt.IsZero() {
		tl.tail = [2]time.Time{v, completeAt}
	}
	return tl
}
