// Resume: the checkpoint → crash → resume cycle, in process. The
// paper's campaign ran for months from each vantage; a monitor that
// loses nine months of measurements to one crash is not a monitor.
// This example runs a small campaign with per-round checkpointing,
// "kills" it by cancelling its context once round 3 completes (the
// same path a SIGINT takes in v6mon), reopens the campaign from its
// checkpoint log with core.Open in a fresh Scenario — exactly what a
// restarted process does — and then proves the resumed campaign's
// databases, exported as CSV, are byte-identical to a campaign that
// was never interrupted.
//
//	go run ./examples/resume
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"v6web/internal/cli"
	"v6web/internal/core"
	"v6web/internal/scenario"
	"v6web/internal/store"
)

func config() core.Config {
	// A scaled-down baseline world from the scenario-pack layer, as
	// `v6mon -scenario baseline-2011 -set ...` would build it.
	sp, err := scenario.Load("baseline-2011")
	if err != nil {
		log.Fatal(err)
	}
	for _, kv := range []string{
		"seed=21", "topo.ases=300", "list.size=2000", "list.extended=0", "schedule.rounds=10",
	} {
		if err := sp.SetKV(kv); err != nil {
			log.Fatal(err)
		}
	}
	comp, err := sp.Compile()
	if err != nil {
		log.Fatal(err)
	}
	return comp.Config
}

func main() {
	root, err := os.MkdirTemp("", "v6web-resume-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	cfg := config()

	// Reference: the campaign nothing ever happens to.
	ref, err := core.NewScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := ref.RunContext(context.Background()); err != nil {
		log.Fatal(err)
	}
	// World IPv6 Day and the saved databases, as every tool finishes a
	// campaign.
	if err := cli.Finish(context.Background(), ref, filepath.Join(root, "ref"), nil, ""); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uninterrupted campaign: %d rounds, %v\n", ref.RoundsDone(), ref.DB)

	// The doomed campaign: checkpoint every round, crash after round 3.
	// Its log is empty, so Open starts it fresh.
	backend := store.NewCheckpointBackend(filepath.Join(root, "campaign"))
	doomed, _, err := core.Open(cfg, backend)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = doomed.RunContext(ctx,
		core.WithCheckpoint(backend, 1),
		core.WithObserver(func(ev core.RoundEvent) {
			if ev.Vantage == "Penn" {
				fmt.Printf("  round %d  %-6s  %4d sites monitored (%v)\n",
					ev.Round+1, ev.Vantage, ev.Stats.Sites, ev.Elapsed)
			}
			if ev.Round == 3 {
				cancel() // the "crash": detected at the next round boundary
			}
		}))
	if !errors.Is(err, context.Canceled) {
		log.Fatalf("expected a cancelled campaign, got %v", err)
	}
	fmt.Printf("campaign killed after round %d/%d; checkpoint holds the completed rounds\n\n",
		doomed.RoundsDone(), cfg.Rounds)

	// A new process: same config, same backend, none of the old state.
	// Open finds the committed checkpoint and resumes it.
	resumed, ok, err := core.Open(cfg, backend)
	if err != nil || !ok {
		log.Fatalf("reopening the campaign: resumed=%v err=%v", ok, err)
	}
	fmt.Printf("resumed at round %d/%d\n", resumed.RoundsDone(), cfg.Rounds)
	if err := resumed.RunContext(context.Background(), core.WithCheckpoint(backend, 1)); err != nil {
		log.Fatal(err)
	}
	if err := cli.Finish(context.Background(), resumed, filepath.Join(root, "resumed"), backend, ""); err != nil {
		log.Fatal(err)
	}

	// The payoff: crash+resume left no trace in the measurements. Both
	// products are compared as their CSV export, as `v6report -db DIR
	// -csv OUT` writes it.
	for _, run := range []string{"ref", "resumed"} {
		if err := cli.ExportCSV(filepath.Join(root, run), filepath.Join(root, run+"-csv")); err != nil {
			log.Fatal(err)
		}
	}
	for _, name := range []string{"main/sites.csv", "main/dns.csv", "main/samples.csv", "main/paths.csv",
		"v6day/sites.csv", "v6day/dns.csv", "v6day/samples.csv", "v6day/paths.csv"} {
		want, err := os.ReadFile(filepath.Join(root, "ref-csv", name))
		if err != nil {
			log.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(root, "resumed-csv", name))
		if err != nil {
			log.Fatal(err)
		}
		status := "byte-identical"
		if string(want) != string(got) {
			status = "MISMATCH"
		}
		fmt.Printf("  %-18s %8d bytes  %s\n", name, len(got), status)
		if status == "MISMATCH" {
			os.Exit(1)
		}
	}
	fmt.Println("\ncrash + resume is invisible in the data: the campaign is durable.")
}
