package main

// End-to-end tests of v6mon's stop/resume contract at the binary
// level: a campaign stopped by -stop-after or by SIGINT exits 0 with a
// checkpoint on disk, and rerunning the same command continues it to a
// product whose CSV export is byte-identical to a run that was never
// interrupted; a rerun under another configuration is an error.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"v6web/internal/cli"
)

func buildV6Mon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "v6mon")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// v6mon runs the binary to completion and returns its combined output.
func v6mon(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("v6mon %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

func shapeArgs(out string, rounds string) []string {
	return []string{"-out", out, "-seed", "7", "-ases", "300", "-sites", "1500", "-rounds", rounds}
}

// exportCSV exports the product in dir as CSV, as `v6report -db dir
// -csv` does, and returns the export's directory.
func exportCSV(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	if err := cli.ExportCSV(dir, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// assertSameCSVs requires the products in refDir and gotDir to export
// byte-identical CSV files.
func assertSameCSVs(t *testing.T, refDir, gotDir string) {
	t.Helper()
	refDir, gotDir = exportCSV(t, refDir), exportCSV(t, gotDir)
	for _, name := range []string{
		"main/sites.csv", "main/dns.csv", "main/samples.csv", "main/paths.csv",
		"v6day/sites.csv", "v6day/dns.csv", "v6day/samples.csv", "v6day/paths.csv",
	} {
		want, err := os.ReadFile(filepath.Join(refDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(gotDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s differs from the uninterrupted run (%d vs %d bytes)", name, len(got), len(want))
		}
	}
}

func TestStopAfterThenResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the v6mon binary")
	}
	bin := buildV6Mon(t)
	root := t.TempDir()
	ref, data := filepath.Join(root, "ref"), filepath.Join(root, "data")

	v6mon(t, bin, append(shapeArgs(ref, "8"), "-checkpoint-every", "0", "-q")...)
	out := v6mon(t, bin, append(shapeArgs(data, "8"), "-checkpoint-every", "2", "-stop-after", "3")...)
	if !strings.Contains(out, "stopped after round 3/8") {
		t.Errorf("-stop-after 3 did not report the stop:\n%s", out)
	}
	out = v6mon(t, bin, shapeArgs(data, "8")...)
	if !strings.Contains(out, "resuming from checkpoint: round 3/8") {
		t.Errorf("the rerun did not resume at round 3:\n%s", out)
	}
	assertSameCSVs(t, ref, data)
}

// TestForeignCheckpointLogIsAnError: a run whose configuration differs
// from the one that wrote the checkpoint log under -out fails naming
// the fingerprint mismatch, the log's path and the two ways out
// (remove the log, or pick another -out), instead of starting over and
// deleting the log; the log stays, and the original command still
// continues it.
func TestForeignCheckpointLogIsAnError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the v6mon binary")
	}
	bin := buildV6Mon(t)
	data := filepath.Join(t.TempDir(), "data")
	v6mon(t, bin, append(shapeArgs(data, "8"), "-checkpoint-every", "2", "-stop-after", "3", "-q")...)
	foreign := append(shapeArgs(data, "8"), "-seed", "8", "-q")
	out, err := exec.Command(bin, foreign...).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "fingerprint") {
		t.Fatalf("-seed 8 over -seed 7's log: err %v, want a fingerprint error:\n%s", err, out)
	}
	for _, want := range []string{filepath.Join(data, "checkpoints"), "remove it", "-out"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("the fingerprint error does not name %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(filepath.Join(data, "main.v6db")); !os.IsNotExist(err) {
		t.Errorf("the refused run wrote a product: %v", err)
	}
	out2 := v6mon(t, bin, shapeArgs(data, "8")...)
	if !strings.Contains(out2, "resuming from checkpoint: round 3/8") {
		t.Errorf("the original command did not continue the log:\n%s", out2)
	}
}

// lineWatcher collects the child's output and closes seen once the
// wanted pattern appears, so the test signals mid-campaign rather than
// after a blind sleep.
type lineWatcher struct {
	re   *regexp.Regexp
	seen chan struct{}
	once sync.Once
	mu   sync.Mutex
	buf  bytes.Buffer
}

func (w *lineWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, _ := w.buf.Write(p)
	if w.re.Match(w.buf.Bytes()) {
		w.once.Do(func() { close(w.seen) })
	}
	return n, nil
}

func (w *lineWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func TestSigintDrainsAndResumesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the v6mon binary")
	}
	bin := buildV6Mon(t)
	root := t.TempDir()
	ref, data := filepath.Join(root, "ref"), filepath.Join(root, "data")
	const rounds = "40"

	v6mon(t, bin, append(shapeArgs(ref, rounds), "-checkpoint-every", "0", "-q")...)

	watch := &lineWatcher{re: regexp.MustCompile(`(?m)^round  2/40 `), seen: make(chan struct{})}
	cmd := exec.Command(bin, append(shapeArgs(data, rounds), "-checkpoint-every", "5")...)
	cmd.Stdout, cmd.Stderr = watch, watch
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-watch.seen:
	case <-time.After(2 * time.Minute):
		cmd.Process.Kill()
		t.Fatalf("campaign never reached round 2:\n%s", watch.String())
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("SIGINT drain must exit 0, got %v\n%s", err, watch.String())
	}
	if !strings.Contains(watch.String(), "checkpoint saved — rerun the same command to continue") {
		t.Fatalf("no drain notice (did the campaign finish before the signal?):\n%s", watch.String())
	}

	out := v6mon(t, bin, append(shapeArgs(data, rounds), "-checkpoint-every", "5")...)
	if !regexp.MustCompile(`resuming from checkpoint: round ([1-9]|[1-3][0-9])/40`).MatchString(out) {
		t.Errorf("resume did not start mid-campaign:\n%s", out)
	}
	assertSameCSVs(t, ref, data)
}
