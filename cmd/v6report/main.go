// Command v6report regenerates every table and figure of the paper's
// evaluation. With -db it analyzes the databases a finished campaign
// saved (v6mon, v6shard coordinate or v6mond, including a campaign
// finished by rerunning it from its checkpoints): the binary snapshots
// main.v6db and v6day.v6db, both of which must load. With -db and
// -csv it renders nothing and instead exports those databases as CSV,
// the one way a saved campaign becomes CSV. Without -db, it runs a
// fresh deterministic campaign end to end and reports on that. Both
// paths render the measurement tables through report.RenderStudy,
// but they do not analyze the same vantages: -db builds its study with
// report.StudyOfSnapshot over every vantage in the saved database (all
// six), while a fresh campaign analyzes only the four AS_PATH
// vantages (core.Scenario.Study). The per-vantage
// tables of a saved campaign therefore carry two more vantages than
// the fresh report of the same campaign, and Table 2's "All" column
// can differ (EXPERIMENTS.md, "Saved vs fresh reports").
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
//	v6report -db v6web-data -csv out   # out/main/*.csv, out/v6day/*.csv
//	v6report -scenario world-ipv6-day -set topo.ases=500
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"v6web/internal/analysis"
	"v6web/internal/cli"
	"v6web/internal/core"
	"v6web/internal/report"
	"v6web/internal/scenario"
)

func main() {
	var (
		dbDir  = flag.String("db", "", "directory previously written by v6mon (empty: run a fresh scenario)")
		csvOut = flag.String("csv", "", "with -db: write the saved databases as CSV under this directory (DIR/main, DIR/v6day) instead of the report")
		seed   = flag.Int64("seed", 42, "scenario seed when running fresh")
		ases   = flag.Int("ases", 1500, "topology size when running fresh")
		sites  = flag.Int("sites", 20000, "list size when running fresh")
		pack   = flag.String("scenario", "", "scenario pack for the fresh campaign: built-in name, pack file, or \"list\" (replaces -seed/-ases/-sites; combining them is an error)")
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
	if *pack != "" && (*dbDir != "" || *csvOut != "") {
		fatal(errors.New("-scenario runs a fresh campaign; it cannot be combined with -db or -csv"))
	}
	if *csvOut != "" && *dbDir == "" {
		fatal(errors.New("-csv exports a saved campaign; it needs -db"))
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

	if *csvOut != "" {
		if err := cli.ExportCSV(*dbDir, *csvOut); err != nil {
			fatal(err)
		}
		return
	}
	main1, v6dayDB, err := cli.OpenCompleted(*dbDir)
	if err != nil {
		fatal(err)
	}
	study := report.StudyOfSnapshot(main1.Freeze(), analysis.DefaultThresholds())
	v6day := report.StudyOfSnapshot(v6dayDB.Freeze(), report.V6DayThresholds())
	report.RenderStudy(os.Stdout, study, v6day)
}

func fatal(err error) { cli.Fatal("v6report", err) }
