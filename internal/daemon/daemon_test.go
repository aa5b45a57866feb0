package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"v6web/internal/analysis"
	"v6web/internal/fault"
	"v6web/internal/report"
	"v6web/internal/scenario"
	"v6web/internal/store"
)

// tinyOverrides shrinks the baseline pack to a campaign that runs in
// well under a second, so the end-to-end tests stay fast.
func tinyOverrides() scenario.Overrides {
	return scenario.Overrides{"topo.ases=80", "list.size=400", "schedule.rounds=3"}
}

func newTestDaemon(t *testing.T, opt Options) *Daemon {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = t.TempDir()
	}
	opt.Addr = "127.0.0.1:0"
	return New(opt)
}

// startDaemon runs d until the test ends and returns its base URL.
func startDaemon(t *testing.T, d *Daemon) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Run: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("Run did not drain")
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for d.Addr() == "" {
		if time.Now().After(deadline) {
			t.Fatal("daemon never bound its listener")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return "http://" + d.Addr()
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body
}

func waitForState(t *testing.T, base, campaign, want string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := get(t, base+"/api/campaigns/"+campaign)
		if code == http.StatusOK && strings.Contains(string(body), `"state": "`+want+`"`) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never reached state %s; last status: %s", campaign, want, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonEndToEnd runs a tiny campaign to completion under the
// daemon and checks the serving contract: readiness, status, warm
// exhibits, and a full report byte-identical to analyzing the saved
// databases directly (the `v6report -db` path).
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, Options{Dir: dir})
	if _, err := d.Add("tiny", "baseline-2011", tinyOverrides()); err != nil {
		t.Fatal(err)
	}
	base := startDaemon(t, d)

	if code, body := get(t, base+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, body)
	}
	waitForState(t, base, "tiny", StateComplete)
	if code, body := get(t, base+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after completion: %d %s", code, body)
	}

	// Served report == analyzing the campaign's saved databases directly.
	code, served := get(t, base+"/api/campaigns/tiny/report")
	if code != http.StatusOK {
		t.Fatalf("report: %d", code)
	}
	campaignDir := filepath.Join(dir, "campaigns", "tiny")
	mainDB, err := store.Load(filepath.Join(campaignDir, store.SnapMain))
	if err != nil {
		t.Fatal(err)
	}
	v6dayDB, err := store.Load(filepath.Join(campaignDir, store.SnapV6Day))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	report.RenderStudy(&want,
		report.StudyOfSnapshot(mainDB.Freeze(), analysis.DefaultThresholds()),
		report.StudyOfSnapshot(v6dayDB.Freeze(), report.V6DayThresholds()))
	if !bytes.Equal(served, want.Bytes()) {
		t.Errorf("served report differs from direct analysis of saved databases\nserved %d bytes, want %d", len(served), want.Len())
	}

	// Every servable exhibit is warm (the pack selects none, so all are
	// pre-rendered) and served with version headers.
	for _, ex := range servableExhibits {
		code, body := get(t, base+"/api/campaigns/tiny/exhibits/"+ex)
		if code != http.StatusOK || len(body) == 0 {
			t.Errorf("exhibit %s: %d (%d bytes)", ex, code, len(body))
		}
	}
	if code, _ := get(t, base+"/api/campaigns/tiny/exhibits/nope"); code != http.StatusNotFound {
		t.Errorf("unknown exhibit: got %d, want 404", code)
	}
	if code, _ := get(t, base+"/api/campaigns/nope"); code != http.StatusNotFound {
		t.Errorf("unknown campaign: got %d, want 404", code)
	}
}

// TestDaemonResumesCompletedCampaign restarts a daemon over a
// completed campaign directory: it must serve the same bytes without
// re-running anything.
func TestDaemonResumesCompletedCampaign(t *testing.T) {
	dir := t.TempDir()
	d1 := newTestDaemon(t, Options{Dir: dir})
	if _, err := d1.Add("tiny", "baseline-2011", tinyOverrides()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d1.Run(ctx) }()
	for d1.Addr() == "" {
		time.Sleep(5 * time.Millisecond)
	}
	base := "http://" + d1.Addr()
	waitForState(t, base, "tiny", StateComplete)
	_, first := get(t, base+"/api/campaigns/tiny/report")
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("first daemon drain: %v", err)
	}

	// Second daemon: no Add — Discover alone must find the campaign.
	d2 := newTestDaemon(t, Options{Dir: dir})
	if err := d2.Discover(); err != nil {
		t.Fatal(err)
	}
	if len(d2.Campaigns()) != 1 {
		t.Fatalf("discovered %d campaigns, want 1", len(d2.Campaigns()))
	}
	base2 := startDaemon(t, d2)
	waitForState(t, base2, "tiny", StateComplete)
	_, second := get(t, base2+"/api/campaigns/tiny/report")
	if !bytes.Equal(first, second) {
		t.Error("report served after restart differs from the original run")
	}
}

// TestReadyzGatesOnFirstVersion: readiness must be 503 until every
// campaign has published a version, then 200.
func TestReadyzGatesOnFirstVersion(t *testing.T) {
	d := newTestDaemon(t, Options{})
	c, err := d.register(filepath.Join(t.TempDir(), "c1"), nil, scenario.Compiled{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.handler())
	defer srv.Close()

	if code, body := get(t, srv.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no version: %d %s", code, body)
	} else if !strings.Contains(string(body), "c1") {
		t.Fatalf("readyz should name the waiting campaign: %s", body)
	}
	if code, _ := get(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Error("healthz must be live even before readiness")
	}
	if code, _ := get(t, srv.URL+"/api/campaigns/c1/report"); code != http.StatusServiceUnavailable {
		t.Error("exhibits before the first version must 503")
	}

	if !c.publish(nil, &Version{warm: map[string][]byte{reportExhibit: []byte("r")}}) {
		t.Fatal("first publish rejected")
	}
	if code, _ := get(t, srv.URL+"/readyz"); code != http.StatusOK {
		t.Error("readyz after first publish should be 200")
	}
}

// TestLoadShedding: cold renders beyond the concurrency bound are shed
// with 429; warm exhibits bypass the limiter entirely.
func TestLoadShedding(t *testing.T) {
	d := newTestDaemon(t, Options{RenderConcurrency: 1})
	c, err := d.register(filepath.Join(t.TempDir(), "c1"), nil, scenario.Compiled{})
	if err != nil {
		t.Fatal(err)
	}
	c.publish(nil, &Version{warm: map[string][]byte{"table2": []byte("warm bytes")}})
	srv := httptest.NewServer(d.handler())
	defer srv.Close()

	d.renderSem <- struct{}{} // occupy the only render slot
	resp, err := http.Get(srv.URL + "/api/campaigns/c1/exhibits/fig1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("cold render with full limiter: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 should carry Retry-After")
	}
	if code, body := get(t, srv.URL+"/api/campaigns/c1/exhibits/table2"); code != http.StatusOK || string(body) != "warm bytes" {
		t.Errorf("warm exhibit must bypass the limiter: %d %q", code, body)
	}
	<-d.renderSem
	if code, _ := get(t, srv.URL+"/api/campaigns/c1/exhibits/fig1"); code != http.StatusOK {
		t.Errorf("cold render with a free slot: %d, want 200", code)
	}
	if d.sheds.Load() != 1 {
		t.Errorf("sheds counter: %d, want 1", d.sheds.Load())
	}
}

// TestEventStream: SSE delivers round events and terminates on drain.
func TestEventStream(t *testing.T) {
	d := newTestDaemon(t, Options{})
	c, err := d.register(filepath.Join(t.TempDir(), "c1"), nil, scenario.Compiled{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/campaigns/c1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	// The subscription races the handler's registration; send until the
	// first data line arrives.
	got := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data: ") {
				got <- sc.Text()
				return
			}
		}
	}()
	deadline := time.After(10 * time.Second)
	for {
		c.events.send(Event{Campaign: "c1", Kind: "round", Round: 1})
		select {
		case line := <-got:
			if !strings.Contains(line, `"kind":"round"`) {
				t.Fatalf("unexpected event line: %s", line)
			}
			close(d.draining) // drain must end the stream
			deadline := time.Now().Add(10 * time.Second)
			for sc.Scan() {
				if time.Now().After(deadline) {
					t.Fatal("stream did not terminate on drain")
				}
			}
			return
		case <-deadline:
			t.Fatal("no event delivered")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestBroadcasterDropsWhenFull: a stalled subscriber loses events (and
// counts them) instead of blocking the sender.
func TestBroadcasterDropsWhenFull(t *testing.T) {
	b := newBroadcaster()
	s := b.subscribe()
	defer b.unsubscribe(s)
	for i := 0; i < subscriberBuffer+5; i++ {
		b.send(Event{Kind: "round", Round: i})
	}
	if got := s.dropped.Load(); got != 5 {
		t.Errorf("dropped %d events, want 5", got)
	}
	if len(s.ch) != subscriberBuffer {
		t.Errorf("buffered %d events, want %d", len(s.ch), subscriberBuffer)
	}
}

// TestRecoveringCatchesPanic: a panicking campaign attempt becomes an
// error with the stack attached, not a crashed daemon.
func TestRecoveringCatchesPanic(t *testing.T) {
	err := recovering(func() error { panic("boom") })
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("recovering returned %v", err)
	}
	if !strings.Contains(err.Error(), "recovering") && !strings.Contains(err.Error(), "goroutine") {
		t.Errorf("panic error should carry a stack trace: %v", err)
	}
	if err := recovering(func() error { return errors.New("plain") }); err == nil || err.Error() != "plain" {
		t.Errorf("plain errors must pass through, got %v", err)
	}
}

// TestPublishSequenceAndFencing: publishes bump the serving sequence;
// an attempt the watchdog abandoned is rejected without touching it.
func TestPublishSequenceAndFencing(t *testing.T) {
	c := newCampaign(filepath.Join(t.TempDir(), "c1"), nil, scenario.Compiled{})
	p := fault.RetryPolicy{MaxAttempts: 1, Timeout: time.Millisecond}
	err := p.Supervise(context.Background(), func(a *fault.Attempt) error {
		for i := 1; i <= 3; i++ {
			v := &Version{Round: i}
			if !c.publish(a, v) {
				t.Fatalf("publish %d rejected", i)
			}
			if v.Seq != uint64(i) {
				t.Fatalf("seq %d, want %d", v.Seq, i)
			}
		}
		a.Beat()
		<-a.Abandoned()
		if c.publish(a, &Version{Round: 99}) {
			t.Fatal("abandoned attempt's publish accepted")
		}
		return errors.New("abandoned")
	}, nil)
	if err == nil {
		t.Fatal("abandoned attempt reported success")
	}
	if got := c.Version().Round; got != 3 {
		t.Fatalf("served round %d after fenced publish, want 3", got)
	}
	if got := c.seq.Load(); got != 3 {
		t.Fatalf("seq %d after fenced publish, want 3", got)
	}
}

// TestCampaignFailsAfterBudget: a campaign whose every attempt fails
// before its first round is failed after MaxAttempts attempts, having
// restarted MaxAttempts-1 times, with the cause on the status API.
func TestCampaignFailsAfterBudget(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, Options{Dir: dir, Retry: fault.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}})
	if _, err := d.Add("tiny", "baseline-2011", tinyOverrides()); err != nil {
		t.Fatal(err)
	}
	// A regular file where the checkpoint log belongs: opening the
	// campaign fails on every attempt.
	if err := os.WriteFile(filepath.Join(dir, "campaigns", "tiny", "checkpoints"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	base := startDaemon(t, d)
	waitForState(t, base, "tiny", StateFailed)
	_, body := get(t, base+"/api/campaigns/tiny")
	var st status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Restarts != 2 || st.LastErr == "" {
		t.Errorf("failed campaign reports restarts=%d last_error=%q, want 2 restarts and the cause", st.Restarts, st.LastErr)
	}
}

// TestManifestRoundTrip: write, read back, and reject a spec that no
// longer compiles to the registered fingerprint. A manifest as builds
// with CSV checkpoints wrote it reads back the same: its "format"
// field is ignored, and the campaign checkpoints binary.
func TestManifestRoundTrip(t *testing.T) {
	sp, err := scenario.LoadSpec("baseline-2011", tinyOverrides())
	if err != nil {
		t.Fatal(err)
	}
	comp, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	readBack := func(dir string) (*scenario.Spec, scenario.Compiled) {
		t.Helper()
		sp2, comp2, err := readManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if comp2.Config.Fingerprint() != comp.Config.Fingerprint() {
			t.Error("fingerprint changed across the manifest round trip")
		}
		if sp2.Name != sp.Name {
			t.Errorf("name %q, want %q", sp2.Name, sp.Name)
		}
		return sp2, comp2
	}
	dir := filepath.Join(t.TempDir(), "c1")
	if err := writeManifest(dir, sp, comp.Config.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	readBack(dir)

	spec, err := sp.Encode()
	if err != nil {
		t.Fatal(err)
	}
	csvEra, err := json.MarshalIndent(struct {
		manifest
		Format string `json:"format"`
	}{manifest{Name: "c2", Spec: spec, Fingerprint: comp.Config.Fingerprint()}, "csv"}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	csvDir := filepath.Join(t.TempDir(), "c2")
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(csvDir, manifestFile), csvEra, 0o644); err != nil {
		t.Fatal(err)
	}
	sp2, comp2 := readBack(csvDir)
	c := newCampaign(csvDir, sp2, comp2)
	if err := c.ck.SaveSnapshot(store.SnapMain, store.NewDB()); err != nil {
		t.Fatal(err)
	}
	if err := c.ck.SaveMeta(store.Meta{Rounds: comp.Config.Rounds, ConfigHash: comp.Config.Fingerprint()}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(csvDir, "checkpoints", "ck-000000", store.SnapMain+store.BinaryExt)); err != nil {
		t.Fatalf("CSV-era campaign did not checkpoint binary: %v", err)
	}

	// A fingerprint mismatch (spec edited under the campaign) is loud.
	if err := writeManifest(dir, sp, "deadbeef"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readManifest(dir); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("tampered manifest: %v, want fingerprint error", err)
	}
}

// TestAddRejectsChangedSpec: re-adding a campaign with overrides that
// compile to a different world is an error, not a silent restart.
func TestAddRejectsChangedSpec(t *testing.T) {
	d := newTestDaemon(t, Options{})
	if _, err := d.Add("c1", "baseline-2011", tinyOverrides()); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Add("c1", "baseline-2011", tinyOverrides()); err != nil {
		t.Fatalf("idempotent re-add: %v", err)
	}
	_, err := d.Add("c1", "baseline-2011", scenario.Overrides{"topo.ases=81", "list.size=400", "schedule.rounds=3"})
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("changed spec: %v, want fingerprint error", err)
	}
	if _, err := d.Add("bad name!", "baseline-2011", nil); err == nil {
		t.Error("invalid campaign name accepted")
	}
}

// TestPublishRefusesRoundRegression: the version swap never replaces a
// newer round with an older one (or a complete version with an
// incomplete one), so Seq order always matches round order even when a
// fenced attempt's publish races the fence.
func TestPublishRefusesRoundRegression(t *testing.T) {
	c := newCampaign(filepath.Join(t.TempDir(), "c1"), nil, scenario.Compiled{})
	if !c.publish(nil, &Version{Round: 3}) {
		t.Fatal("publish round 3 rejected")
	}
	if c.publish(nil, &Version{Round: 2}) {
		t.Error("publish must refuse to regress from round 3 to round 2")
	}
	if got := c.Version().Round; got != 3 {
		t.Fatalf("served round %d after regressing publish, want 3", got)
	}
	if !c.publish(nil, &Version{Round: 3, Complete: true}) {
		t.Fatal("equal-round complete publish rejected")
	}
	if c.publish(nil, &Version{Round: 3}) {
		t.Error("publish must refuse to replace a complete version with an incomplete one")
	}
	if !c.Version().Complete {
		t.Error("served version lost completeness")
	}
	if !c.publish(nil, &Version{Round: 4}) {
		t.Error("forward publish rejected")
	}
}

// TestDiscoverQuarantinesBadManifest: a torn or unparseable manifest
// (e.g. a power failure mid-write on a pre-fsync build) must not block
// daemon start — the bad campaign is skipped, healthy ones register.
func TestDiscoverQuarantinesBadManifest(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, Options{Dir: dir})
	if _, err := d.Add("good", "baseline-2011", tinyOverrides()); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "campaigns", "bad")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, "campaign.json"), []byte("{tor"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := newTestDaemon(t, Options{Dir: dir})
	if err := d2.Discover(); err != nil {
		t.Fatalf("Discover with a bad manifest present: %v", err)
	}
	names := make([]string, 0, 2)
	for _, c := range d2.Campaigns() {
		names = append(names, c.Name)
	}
	if len(names) != 1 || names[0] != "good" {
		t.Fatalf("discovered %v, want just [good]", names)
	}
}
