// Package cli holds the few helpers the cmd tools share, so flag
// conventions cannot drift between them: detection of explicitly set
// flags (behind every tool's "-scenario replaces the shape flags"
// conflict errors) and uniform fatal exits.
package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"v6web/internal/store"
)

// ExplicitFlags returns which of the named flags the user set on the
// command line (as opposed to leaving at their defaults).
func ExplicitFlags(names ...string) []string {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var out []string
	for _, n := range names {
		if set[n] {
			out = append(out, n)
		}
	}
	return out
}

// Fatal prints "tool: err" to stderr and exits 1.
func Fatal(tool string, err error) {
	fmt.Fprintln(os.Stderr, tool+":", err)
	os.Exit(1)
}

// SaveCompleted writes a finished campaign's product to dir: both
// databases as CSV plus the completion Meta (NextRound == Rounds,
// Complete set) that marks the directory as final rather than a
// resumable checkpoint. A returned nil means the product survives
// power loss, so callers may then delete the checkpoint log. Every
// tool that finishes a campaign goes through here so the completion
// contract cannot drift between them.
func SaveCompleted(dir string, rounds int, fingerprint string, main, v6day *store.DB) error {
	if err := main.Save(filepath.Join(dir, store.SnapMain)); err != nil {
		return err
	}
	if err := v6day.Save(filepath.Join(dir, store.SnapV6Day)); err != nil {
		return err
	}
	return store.WriteMeta(dir, store.Meta{
		NextRound:  rounds,
		Rounds:     rounds,
		ConfigHash: fingerprint,
		Complete:   true,
		SavedAt:    time.Now().UTC(),
	})
}
