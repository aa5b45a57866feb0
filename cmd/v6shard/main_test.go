package main

// End-to-end test of the coordinator's graceful-shutdown contract:
// SIGTERM mid-campaign makes every live worker checkpoint its shard,
// the command exits 0, and rerunning the same command resumes from
// the checkpoints and produces a product whose CSV export is
// byte-identical to a run that was never interrupted.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"v6web/internal/cli"
)

func buildV6Shard(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "v6shard")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func coordinateArgs(out string) []string {
	return []string{"coordinate", "-out", out,
		"-seed", "5", "-ases", "250", "-sites", "1200", "-rounds", "6",
		"-shards", "2", "-checkpoint-every", "1"}
}

// lineWatcher tees the child's stdout and closes seen once the wanted
// substring appears, so the test can signal mid-campaign rather than
// after a blind sleep.
type lineWatcher struct {
	needle string
	seen   chan struct{}
	once   sync.Once
	mu     sync.Mutex
	buf    bytes.Buffer
}

func (w *lineWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, _ := w.buf.Write(p)
	if strings.Contains(w.buf.String(), w.needle) {
		w.once.Do(func() { close(w.seen) })
	}
	return n, nil
}

func (w *lineWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func TestCoordinateSigtermCheckpointsAndExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns coordinator+worker processes")
	}
	bin := buildV6Shard(t)
	root := t.TempDir()
	refOut := filepath.Join(root, "ref")
	out := filepath.Join(root, "run")

	// Reference: the same campaign, never interrupted.
	if o, err := exec.Command(bin, coordinateArgs(refOut)...).CombinedOutput(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, o)
	}

	watch := &lineWatcher{needle: "round 2 done", seen: make(chan struct{})}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, coordinateArgs(out)...)
	cmd.Stdout = watch
	cmd.Stderr = io.MultiWriter(watch, &stderr)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-watch.seen:
	case <-time.After(2 * time.Minute):
		cmd.Process.Kill()
		t.Fatalf("campaign never reached round 2:\n%s", watch.String())
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err != nil {
		t.Fatalf("SIGTERM drain must exit 0, got %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "shard checkpoints saved") {
		t.Errorf("no graceful-shutdown notice on stderr: %q", stderr.String())
	}
	if ents, err := os.ReadDir(filepath.Join(out, "shards")); err != nil || len(ents) == 0 {
		t.Fatalf("no shard checkpoints on disk after drain (err=%v)", err)
	}

	// Same command again: workers resume from their checkpoints and
	// the merged campaign must match the uninterrupted reference.
	if o, err := exec.Command(bin, coordinateArgs(out)...).CombinedOutput(); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, o)
	}
	assertSameCSVs(t, refOut, out)
}

// assertSameCSVs requires the products in refDir and gotDir to export
// byte-identical CSV files, as `v6report -db dir -csv` writes them.
func assertSameCSVs(t *testing.T, refDir, gotDir string) {
	t.Helper()
	refCSV, gotCSV := t.TempDir(), t.TempDir()
	if err := errors.Join(cli.ExportCSV(refDir, refCSV), cli.ExportCSV(gotDir, gotCSV)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"main/sites.csv", "main/dns.csv", "main/samples.csv", "main/paths.csv",
		"v6day/sites.csv", "v6day/dns.csv", "v6day/samples.csv", "v6day/paths.csv",
	} {
		want, err := os.ReadFile(filepath.Join(refCSV, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(gotCSV, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s differs after interrupt+resume (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

// TestCoordinateRejectsShapeFlagsWithScenario: a scenario pack
// replaces the shape flags, so setting one next to -scenario must fail
// loudly, as it does in v6mon, instead of being silently ignored.
func TestCoordinateRejectsShapeFlagsWithScenario(t *testing.T) {
	bin := buildV6Shard(t)
	out, err := exec.Command(bin, "coordinate", "-out", t.TempDir(),
		"-scenario", "baseline-2011", "-shards", "2", "-seed", "999").CombinedOutput()
	if err == nil {
		t.Fatalf("-scenario with -seed exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "-seed") {
		t.Errorf("error does not name -seed:\n%s", out)
	}
}
