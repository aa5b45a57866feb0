// Package cli holds the few helpers the cmd tools share, so flag
// conventions cannot drift between them: detection of explicitly set
// flags (behind every tool's "-scenario replaces the shape flags"
// conflict errors), the campaign config the shape flags or a pack
// resolve to, and uniform fatal exits.
package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"v6web/internal/core"
	"v6web/internal/scenario"
	"v6web/internal/store"
)

// ExplicitFlags returns which of the named flags the user set in fs
// (as opposed to leaving at their defaults).
func ExplicitFlags(fs *flag.FlagSet, names ...string) []string {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var out []string
	for _, n := range names {
		if set[n] {
			out = append(out, n)
		}
	}
	return out
}

// ResolveConfig builds a campaign config from a scenario pack (when
// pack is given) or from the classic shape flags of fs, -seed, -ases,
// -sites and -rounds, which a pack replaces: setting one of them next
// to a pack is an error.
func ResolveConfig(fs *flag.FlagSet, pack string, sets scenario.Overrides, seed int64, ases, sites, rounds int, quiet bool) (core.Config, error) {
	if pack == "" {
		if len(sets) > 0 {
			return core.Config{}, fmt.Errorf("-set overrides a scenario spec; it needs -scenario")
		}
		cfg := core.DefaultConfig(seed)
		cfg.NASes = ases
		cfg.ListSize = sites
		cfg.Rounds = rounds
		cfg.Vantages = core.ScaledVantages(rounds)
		return cfg, nil
	}
	if bad := ExplicitFlags(fs, "seed", "ases", "sites", "rounds"); len(bad) > 0 {
		return core.Config{}, fmt.Errorf("-%s applies only without -scenario; use -set spec overrides instead (e.g. -set topo.ases=500)", strings.Join(bad, ", -"))
	}
	comp, err := scenario.LoadCompiled(pack, sets)
	if err != nil {
		return core.Config{}, err
	}
	if !quiet && comp.Name != "" {
		fmt.Printf("scenario: %s — %s\n", comp.Name, comp.Doc)
	}
	return comp.Config, nil
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
