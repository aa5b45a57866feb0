package lint

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the backtick-quoted regexps of a "want" comment,
// mirroring the golang.org/x/tools analysistest convention:
//
//	code() // want `first finding` `second finding`
var wantRe = regexp.MustCompile("`([^`]+)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runFixture loads the fixture package at testdata/src/<rel>, runs
// one analyzer, and matches its findings against the fixture's
// "// want" comments: every finding must match a want on its line,
// and every want must be hit.
func runFixture(t *testing.T, a *Analyzer, rel, importPath string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(rel))
	pkg, err := LoadDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, rest, found := strings.Cut(c.Text, "want ")
				if !found || !strings.HasPrefix(c.Text, "// want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(rest, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want expectations", rel)
	}

	diags, err := RunAnalyzers(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestMapOrderFixture(t *testing.T) {
	runFixture(t, MapOrder, "maporder", "maporder")
}

func TestDetRandFixture(t *testing.T) {
	runFixture(t, DetRand, "detrand/websim", "detrand/websim")
}

// TestSimPackagesExist keeps detrand's package list from going stale:
// every entry must name a package directory under internal/.
func TestSimPackagesExist(t *testing.T) {
	for name := range simPackages {
		if fi, err := os.Stat(filepath.Join(repoRoot(t), "internal", name)); err != nil || !fi.IsDir() {
			t.Errorf("simPackages names %q, which is no directory under internal/", name)
		}
	}
}

func TestFingerprintFixture(t *testing.T) {
	runFixture(t, Fingerprint, "fingerprint", "fingerprint")
}

func TestLocksFixture(t *testing.T) {
	runFixture(t, Locks, "locks", "locks")
}

func TestBenchMetricFixture(t *testing.T) {
	runFixture(t, BenchMetric, "benchmetric", "benchmetric")
}

// repoRoot returns the module root (two levels above internal/lint).
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestSmokeFixtureEndToEnd runs the real cmd/v6lint binary over the
// seeded-violation smoke package and asserts each analyzer fires
// exactly once — the same invocation the CI lint job uses to prove
// the checker still fails on known violations.
func TestSmokeFixtureEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	cmd := exec.Command("go", "run", "./cmd/v6lint", "./internal/lint/testdata/src/smoke/websim")
	cmd.Dir = repoRoot(t)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1 on the smoke fixture, got err=%v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		open := strings.LastIndex(line, "[")
		if open < 0 || !strings.HasSuffix(line, "]") {
			t.Errorf("unparseable finding line: %q", line)
			continue
		}
		counts[line[open+1:len(line)-1]]++
	}
	for _, a := range Analyzers() {
		if counts[a.Name] != 1 {
			t.Errorf("analyzer %s fired %d times on the smoke fixture, want exactly 1\noutput:\n%s",
				a.Name, counts[a.Name], stdout.String())
		}
	}
	if total := len(counts); total != len(Analyzers()) {
		t.Errorf("findings from %d analyzers, want %d", total, len(Analyzers()))
	}
}

// TestRepoIsLintClean is the acceptance criterion in test form: the
// full suite over the whole repo reports nothing.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole repo")
	}
	var buf bytes.Buffer
	n, err := Run(repoRoot(t), []string{"./..."}, nil, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("v6lint reports %d finding(s) on the repo:\n%s", n, buf.String())
	}
}

// TestAnalyzerNamesStable guards the CLI contract: -only and CI docs
// refer to analyzers by these names.
func TestAnalyzerNamesStable(t *testing.T) {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	want := "maporder detrand fingerprint locks benchmetric"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("analyzer suite = %q, want %q", got, want)
	}
	for _, a := range Analyzers() {
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s missing Doc or Run", a.Name)
		}
	}
}
