package main

// Crash-recovery property test for the daemon: SIGKILL v6mond at
// random points in a live campaign — including at round boundaries,
// where the kill lands next to a checkpoint commit — restart it with
// no flags (discovery alone), and the resumed campaign must produce
// databases (compared as their CSV export) and served exhibit bytes
// byte-identical to a run that was never interrupted.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"v6web/internal/cli"
)

func buildV6Mond(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "v6mond")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

const killTestCampaign = "tiny=baseline-2011;topo.ases=100;list.size=500;schedule.rounds=5"

// logCapture tees the daemon's stdout so the test can extract the
// bound address (the daemon listens on port 0) and watch progress.
type logCapture struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logCapture) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logCapture) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// startDaemon launches the binary and waits for its listen address.
func startDaemon(t *testing.T, bin, data string, extra ...string) (*exec.Cmd, *logCapture, string) {
	t.Helper()
	args := append([]string{"-data", data, "-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(bin, args...)
	logs := &logCapture{}
	cmd.Stdout = logs
	cmd.Stderr = logs
	if err := cmd.Start(); err != nil {
		t.Fatalf("start v6mond: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(logs.String()); m != nil {
			return cmd, logs, "http://" + m[1]
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("daemon never announced its listener:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getBody(base, path string) (int, []byte, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// waitComplete polls until the campaign reports complete.
func waitComplete(t *testing.T, base string, logs *logCapture) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		_, body, err := getBody(base, "/api/campaigns/tiny")
		if err == nil && strings.Contains(string(body), `"state": "complete"`) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never completed; last status %s\nlogs:\n%s", body, logs.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// campaignRound reads the campaign's completed-round counter (-1 when
// the daemon is unreachable mid-restart).
func campaignRound(base string) int {
	_, body, err := getBody(base, "/api/campaigns/tiny")
	if err != nil {
		return -1
	}
	m := regexp.MustCompile(`"round": (\d+)`).FindSubmatch(body)
	if m == nil {
		return -1
	}
	var n int
	fmt.Sscanf(string(m[1]), "%d", &n)
	return n
}

// servedArtifacts snapshots everything the equivalence check compares:
// the full report, a figure, a table, and the finished campaign's
// databases as their CSV export (`v6report -db -csv`) writes them.
func servedArtifacts(t *testing.T, base, data string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, path := range []string{
		"/api/campaigns/tiny/report",
		"/api/campaigns/tiny/exhibits/fig1",
		"/api/campaigns/tiny/exhibits/fig3b",
		"/api/campaigns/tiny/exhibits/table2",
		"/api/campaigns/tiny/exhibits/table13",
	} {
		code, body, err := getBody(base, path)
		if err != nil || code != http.StatusOK {
			t.Fatalf("GET %s: %d %v", path, code, err)
		}
		out[path] = body
	}
	export := t.TempDir()
	if err := cli.ExportCSV(filepath.Join(data, "campaigns", "tiny"), export); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{
		"main/sites.csv", "main/dns.csv", "main/samples.csv", "main/paths.csv",
		"v6day/sites.csv", "v6day/dns.csv", "v6day/samples.csv", "v6day/paths.csv",
	} {
		b, err := os.ReadFile(filepath.Join(export, rel))
		if err != nil {
			t.Fatalf("read %s: %v", rel, err)
		}
		out[rel] = b
	}
	return out
}

func drain(t *testing.T, cmd *exec.Cmd, logs *logCapture) {
	t.Helper()
	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon drain: %v\n%s", err, logs.String())
	}
}

func TestKillAnywhereResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	bin := buildV6Mond(t)
	root := t.TempDir()

	// Reference: the same campaign, never interrupted, no pacing.
	refData := filepath.Join(root, "ref")
	cmd, logs, base := startDaemon(t, bin, refData, "-campaign", killTestCampaign)
	waitComplete(t, base, logs)
	want := servedArtifacts(t, base, refData)
	drain(t, cmd, logs)

	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	t.Logf("kill-timing seed %d", seed)

	for trial := 0; trial < 2; trial++ {
		name := fmt.Sprintf("trial%d", trial)
		data := filepath.Join(root, fmt.Sprintf("kill-%d", trial))

		// Paced run so the kill lands inside a live campaign. Trial 0
		// kills at a random instant; trial 1 kills the moment a round
		// boundary is observed — right where checkpoint commit and
		// version publish happen.
		cmd, logs, base := startDaemon(t, bin, data,
			"-campaign", killTestCampaign, "-round-every", "250ms")
		if trial == 0 {
			time.Sleep(time.Duration(rng.Int63n(int64(1200 * time.Millisecond))))
		} else {
			start := campaignRound(base)
			deadline := time.Now().Add(30 * time.Second)
			for campaignRound(base) <= start && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
			}
		}
		cmd.Process.Kill() // SIGKILL: no drain, no shutdown checkpoint
		cmd.Wait()

		// Restart with no campaign flags: discovery must find and
		// resume (or finish) the campaign unaided.
		cmd, logs, base = startDaemon(t, bin, data)
		waitComplete(t, base, logs)
		got := servedArtifacts(t, base, data)
		for key, wantBytes := range want {
			if !bytes.Equal(got[key], wantBytes) {
				t.Errorf("%s: %s differs from uninterrupted run (%d vs %d bytes)",
					name, key, len(got[key]), len(wantBytes))
			}
		}
		drain(t, cmd, logs)
	}
}

// TestDrainExitsZeroAndResumes: SIGTERM mid-campaign checkpoints, exits
// 0, and a restart resumes to the same bytes.
func TestDrainExitsZeroAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	bin := buildV6Mond(t)
	root := t.TempDir()

	refData := filepath.Join(root, "ref")
	cmd, logs, base := startDaemon(t, bin, refData, "-campaign", killTestCampaign)
	waitComplete(t, base, logs)
	want := servedArtifacts(t, base, refData)
	drain(t, cmd, logs)

	data := filepath.Join(root, "drain")
	cmd, logs, base = startDaemon(t, bin, data, "-campaign", killTestCampaign, "-round-every", "300ms")
	start := campaignRound(base)
	deadline := time.Now().Add(30 * time.Second)
	for campaignRound(base) <= start && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM mid-campaign must drain to exit 0: %v\n%s", err, logs.String())
	}
	if !strings.Contains(logs.String(), "campaigns checkpointed") {
		t.Errorf("drain notice missing:\n%s", logs.String())
	}

	cmd, logs, base = startDaemon(t, bin, data)
	waitComplete(t, base, logs)
	got := servedArtifacts(t, base, data)
	for key, wantBytes := range want {
		if !bytes.Equal(got[key], wantBytes) {
			t.Errorf("after drain+resume, %s differs (%d vs %d bytes)", key, len(got[key]), len(wantBytes))
		}
	}
	drain(t, cmd, logs)
}
