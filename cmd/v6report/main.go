// Command v6report regenerates every table and figure of the paper's
// evaluation. With -db it analyzes the databases previously saved by
// v6mon (including a campaign finished via checkpoints and -resume);
// without it, it runs a fresh deterministic campaign end to end and
// reports on that. Both paths render the measurement tables through
// the same report.RenderStudy pipeline, so saved and fresh campaigns
// always produce the same exhibits.
//
// With -scenario, the fresh campaign comes from a declarative
// scenario pack (built-in name or pack file; -set applies dotted-path
// overrides), and the pack's report.exhibits selection — when it has
// one — picks which exhibits are rendered.
//
// Usage:
//
//	v6report                     # fresh campaign, full report
//	v6report -db v6web-data      # report over saved measurements
//	v6report -scenario world-ipv6-day -set topo.ases=500
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"v6web/internal/analysis"
	"v6web/internal/cli"
	"v6web/internal/core"
	"v6web/internal/report"
	"v6web/internal/scenario"
	"v6web/internal/store"
)

func main() {
	var (
		dbDir = flag.String("db", "", "directory previously written by v6mon (empty: run a fresh scenario)")
		seed  = flag.Int64("seed", 42, "scenario seed when running fresh")
		ases  = flag.Int("ases", 1500, "topology size when running fresh")
		sites = flag.Int("sites", 20000, "list size when running fresh")
		pack  = flag.String("scenario", "", "scenario pack for the fresh campaign: built-in name, pack file, or \"list\" (replaces -seed/-ases/-sites; combining them is an error)")
	)
	var sets scenario.Overrides
	flag.Var(&sets, "set", "spec override as a dotted path, e.g. -set list.size=5000 (repeatable; needs -scenario)")
	flag.Parse()

	if *pack == "list" {
		if err := scenario.Describe(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *pack != "" && *dbDir != "" {
		fatal(errors.New("-scenario runs a fresh campaign; it cannot be combined with -db"))
	}
	if *pack == "" && len(sets) > 0 {
		fatal(errors.New("-set overrides a scenario spec; it needs -scenario"))
	}
	if *pack != "" {
		if bad := cli.ExplicitFlags(flag.CommandLine, "seed", "ases", "sites"); len(bad) > 0 {
			fatal(fmt.Errorf("-%s applies only without -scenario; use -set spec overrides instead (e.g. -set topo.ases=500)", strings.Join(bad, ", -")))
		}
	}

	if *pack != "" {
		comp, err := scenario.LoadCompiled(*pack, sets)
		if err != nil {
			fatal(err)
		}
		s, err := core.NewScenario(comp.Config)
		if err != nil {
			fatal(err)
		}
		if err := scenario.Render(os.Stdout, s, comp.Exhibits); err != nil {
			fatal(err)
		}
		return
	}

	if *dbDir == "" {
		cfg := core.DefaultConfig(*seed)
		cfg.NASes = *ases
		cfg.ListSize = *sites
		s, err := core.NewScenario(cfg)
		if err != nil {
			fatal(err)
		}
		if err := s.ReportAll(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	main1, err := store.Load(filepath.Join(*dbDir, store.SnapMain))
	if err != nil {
		fatal(err)
	}
	study := report.StudyOfSnapshot(main1.Freeze(), analysis.DefaultThresholds())

	// The World IPv6 Day database is optional (older saves may predate
	// it), but a partially written one is a real error — surface it
	// instead of silently dropping Tables 10 and 12.
	var v6day *analysis.Study
	switch v6dayDB, err := store.Load(filepath.Join(*dbDir, store.SnapV6Day)); {
	case err == nil:
		v6day = report.StudyOfSnapshot(v6dayDB.Freeze(), report.V6DayThresholds())
	case errors.Is(err, store.ErrNoDatabase):
		fmt.Fprintln(os.Stderr, "v6report: no World IPv6 Day database; skipping Tables 10 and 12")
	default:
		fatal(err)
	}

	report.RenderStudy(os.Stdout, study, v6day)
}

func fatal(err error) { cli.Fatal("v6report", err) }
