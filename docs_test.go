package v6web

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"v6web/internal/scenario"
)

// The documentation suite references files and directories by path;
// a rename that is not propagated leaves dead references behind. This
// test scans every documentation entry point and fails on any
// referenced path that no longer exists — CI's docs job runs it
// alongside gofmt and vet.

// docFiles are the documents whose references are checked.
var docFiles = []string{"doc.go", "README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md"}

var (
	// Repository-relative paths: internal/..., examples/..., cmd/...
	// ("*" tokens are checked as globs).
	treePathRe = regexp.MustCompile(`\b(?:internal|examples|cmd)(?:/[A-Za-z0-9_.*-]+)*`)
	// Root-level documents (README.md, DESIGN.md, ...).
	rootMDRe = regexp.MustCompile(`\b[A-Z][A-Za-z0-9_-]*\.md\b`)
	// Root-level Go files the docs point at by bare name. Other bare
	// .go names (runner.go, main.go, ...) are package-internal
	// mentions and are not resolvable from the root.
	rootGoFiles = map[string]bool{"doc.go": true, "bench_test.go": true}
	bareGoRe    = regexp.MustCompile(`\b[a-z][a-z0-9_]*\.go\b`)
)

func TestDocReferences(t *testing.T) {
	total := 0
	for _, doc := range docFiles {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("documentation entry point missing: %v", err)
		}
		text := string(data)
		seen := map[string]bool{}
		check := func(ref string) {
			ref = strings.TrimRight(ref, "./")
			if ref == "" || seen[ref] {
				return
			}
			seen[ref] = true
			total++
			if strings.Contains(ref, "*") {
				matches, err := filepath.Glob(ref)
				if err != nil || len(matches) == 0 {
					t.Errorf("%s references %q, which matches nothing", doc, ref)
				}
				return
			}
			if _, err := os.Stat(ref); err != nil {
				t.Errorf("%s references %q, which does not exist", doc, ref)
			}
		}
		for _, ref := range treePathRe.FindAllString(text, -1) {
			check(ref)
		}
		for _, ref := range rootMDRe.FindAllString(text, -1) {
			check(ref)
		}
		for _, ref := range bareGoRe.FindAllString(text, -1) {
			if rootGoFiles[ref] {
				check(ref)
			}
		}
	}
	// Guard against a regex regression silently checking nothing: the
	// suite references far more than this many distinct paths.
	if total < 20 {
		t.Errorf("only %d references found across the documentation; the scanner is likely broken", total)
	}
}

// The docs doc.go promises must exist and be linked from doc.go (the
// repository's front door), per the repository's acceptance bar.
func TestDocGoLinksTheSuite(t *testing.T) {
	data, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		if !strings.Contains(string(data), doc) {
			t.Errorf("doc.go does not link %s", doc)
		}
	}
}

// README's pack table names every built-in pack and nothing else, so
// a pack added to or retired from the registry cannot leave it stale.
func TestDocPackTableMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(data), "| pack | world |\n|---|---|\n")
	if !ok {
		t.Fatal("README.md has no pack table (| pack | world |)")
	}
	var names []string
	for _, line := range strings.Split(table, "\n") {
		rest, ok := strings.CutPrefix(line, "| `")
		if !ok {
			break
		}
		name, _, _ := strings.Cut(rest, "`")
		names = append(names, name)
	}
	slices.Sort(names)
	if want := scenario.Names(); !slices.Equal(names, want) {
		t.Errorf("README's pack table lists %v, the registry ships %v", names, want)
	}
}
