// Command v6mon runs the full monitoring campaign — topology, ranked
// list, six vantage points, weekly rounds, World IPv6 Day — through
// the resumable campaign runner, and saves the measurement databases
// as binary snapshots (<out>/main.v6db, <out>/v6day.v6db) for later
// analysis with v6report, whose -csv exports them as CSV.
//
// The rounds run through core.RunContext, the loop every campaign
// shares, and the finished campaign through cli.Finish, the one
// completion step (World IPv6 Day, the product, checkpoint removal).
// The campaign checkpoints its completed rounds (crash-safe,
// append-only directories under <out>/checkpoints) every
// -checkpoint-every rounds, on SIGINT/SIGTERM and at -stop-after
// (unless that round is already committed), and once the main study
// is finished, so a graceful interrupt loses at most the round in
// flight and a hard kill at most the cadence. Every run opens the
// checkpoint log under -out through core.Open, so rerunning the same
// command continues from the last checkpoint and produces databases
// whose CSV exports are byte-identical to a never-interrupted run's.
// A log another configuration wrote is an error naming the
// fingerprint mismatch: remove <out>/checkpoints or pick another -out.
// Each checkpoint directory holds the main database either whole
// (main.v6db, a base) or as a chain: the last base as main.base.v6db
// plus main.seg-NNNNNN.v6seg segments of what changed since, the older
// files hard-linked from the previous checkpoint so every directory
// loads on its own. A checkpoint in a format this build does not write
// (CSV, or an earlier build's segments) does not resume: remove it and
// rerun the campaign.
//
// The campaign's world can come from a declarative scenario pack
// (-scenario, internal/scenario) instead of the shape flags: a
// built-in pack name or a pack file, with -set applying dotted-path
// overrides on top. `v6mon -scenario list` prints the catalog.
//
// Usage:
//
//	v6mon -out data/ [-seed 42] [-ases 1500] [-sites 20000] [-rounds 35]
//	      [-checkpoint-every 5] [-q]
//	v6mon -out data/ -scenario world-ipv6-day              # a built-in pack
//	v6mon -out data/ -scenario my.json -set topo.ases=500  # a pack file, scaled
//	v6mon -out data/                  # rerun: continue a killed campaign
//	v6mon -out data/ -stop-after 10   # checkpoint and exit after round 10
//	v6mon -out data/ -shards 4        # split across 4 local worker processes
//
// With -shards N > 1 the campaign runs as N site-range shards in
// worker processes (internal/shard), through the sharded driver it
// shares with `v6shard coordinate` (cli.RunSharded): each worker
// measures its slice and streams columnar binary frames back; the
// coordinator merges them into databases whose CSV exports are
// byte-identical to a single-process run's. Workers checkpoint per shard under <out>/shards, so a killed
// worker costs one shard-round and an interrupted coordinator, in the
// rounds or in the World IPv6 Day tail, continues when the same
// command is rerun.
//
// -faults arms the deterministic chaos layer (internal/fault): on the
// sharded path it injects filesystem faults at worker checkpoint
// commits and wire faults on the coordinator's streams, and the
// retry/backoff layer must still deliver byte-identical exports. Planned
// vantage outages are campaign state, not faults — declare them in a
// scenario pack's "faults" section (see the vantage-outages built-in).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"v6web/internal/cli"
	"v6web/internal/core"
	"v6web/internal/fault"
	"v6web/internal/scenario"
	"v6web/internal/shard"
	"v6web/internal/store"
)

func main() {
	shard.MaybeWorker()
	var (
		out       = flag.String("out", "v6web-data", "output directory for the measurement databases and checkpoints")
		seed      = flag.Int64("seed", 42, "deterministic scenario seed")
		ases      = flag.Int("ases", 1500, "number of ASes in the synthetic topology")
		sites     = flag.Int("sites", 20000, "ranked-list size (stand-in for the top 1M)")
		rounds    = flag.Int("rounds", 35, "weekly monitoring rounds")
		pack      = flag.String("scenario", "", "scenario pack: a built-in name, a pack file, or \"list\" to print the catalog (replaces -seed/-ases/-sites/-rounds; combining them is an error)")
		quiet     = flag.Bool("q", false, "suppress progress output")
		every     = flag.Int("checkpoint-every", 5, "checkpoint after this many completed rounds (0 disables checkpointing; SIGINT checkpoints regardless)")
		stopAfter = flag.Int("stop-after", 0, "checkpoint and exit after this round completes (0 runs to the end)")
		shards    = flag.Int("shards", 1, "split the campaign across this many local worker processes (1 runs in-process)")
		faults    = flag.String("faults", "", "deterministic chaos plan, e.g. seed=7,fs=0.1,wire.cut=0.3 (unsharded runs take fs faults only and have no retry layer, so an injected checkpoint fault aborts the run)")
		frameTime = flag.Duration("frame-timeout", 0, "sharded: max silence on a worker stream, plus the retry backoff, before the shard attempt is retried (0 uses the default watchdog; needs -shards > 1)")
	)
	var sets scenario.Overrides
	flag.Var(&sets, "set", "spec override as a dotted path, e.g. -set topo.ases=500 (repeatable; needs -scenario)")
	flag.Parse()

	if *pack == "list" {
		if err := scenario.Describe(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	cfg, cfgErr := cli.ResolveConfig(flag.CommandLine, *pack, sets, *seed, *ases, *sites, *rounds, *quiet)
	if cfgErr != nil {
		fatal(cfgErr)
	}

	var (
		fc  *fault.Config
		err error
	)
	if *faults != "" {
		fc, err = fault.ParseFlag(*faults)
		if err != nil {
			fatal(err)
		}
	}

	if *stopAfter > 0 && *every <= 0 {
		fatal(fmt.Errorf("-stop-after needs -checkpoint-every > 0, or the stopped campaign cannot be resumed"))
	}
	// SIGINT/SIGTERM cancel the campaign at the next round boundary;
	// the runner checkpoints the completed rounds before returning.
	ctx, stop := cli.SignalContext()
	defer stop()
	if *shards > 1 {
		if *stopAfter > 0 {
			fatal(fmt.Errorf("-shards does not combine with -stop-after; workers resume from their own shard checkpoints, so just rerun the same command"))
		}
		opt := shard.Options{Workers: *shards, CheckpointEvery: *every, Faults: fc, Retry: fault.RetryPolicy{Timeout: *frameTime}}
		if err := cli.RunSharded(ctx, "v6mon", cfg, *out, opt, *quiet); err != nil {
			fatal(err)
		}
		return
	}
	if *frameTime > 0 {
		fatal(fmt.Errorf("-frame-timeout guards the worker streams; it needs -shards > 1"))
	}
	if fc != nil && (fc.Wire != fault.WirePlan{}) {
		fatal(fmt.Errorf("wire faults exist only at the shard boundary; they need -shards > 1"))
	}

	ckpt := store.NewCheckpointBackend(*out)
	ckpt.Fingerprint = cfg.Fingerprint()
	if fc != nil {
		// Chaos drill for the checkpoint path: filesystem faults land
		// on the checkpoint log's commit points, deterministically per
		// fingerprint. With no retry layer here, a drawn fault is fatal.
		ckpt.Hook = fault.New(*fc, cfg.Fingerprint()).FSHook()
	}

	s, resumed, err := core.Open(cfg, ckpt)
	if err != nil {
		if _, ok, _ := ckpt.LoadMeta(); ok {
			err = fmt.Errorf("%w (checkpoint log %s: remove it to start over, or pick another -out)", err, filepath.Join(*out, "checkpoints"))
		}
		fatal(err)
	}
	if !*quiet {
		if resumed {
			fmt.Printf("resuming from checkpoint: round %d/%d\n", s.RoundsDone(), cfg.Rounds)
		} else {
			fmt.Printf("topology: %d ASes (%d v6-capable), list: %d sites, rounds: %d\n",
				s.Graph.N(), s.Graph.CountV6(), cfg.ListSize, cfg.Rounds)
		}
	}

	opts := []core.RunOption{}
	if !*quiet {
		opts = append(opts, core.WithObserver(func(ev core.RoundEvent) {
			if ev.Outage {
				fmt.Printf("round %2d/%d  %-14s  offline (scheduled outage)\n",
					ev.Round+1, cfg.Rounds, ev.Vantage)
				return
			}
			fmt.Printf("round %2d/%d  %-14s  %6d sites  %5d dual  %5d measured  (%v)\n",
				ev.Round+1, cfg.Rounds, ev.Vantage, ev.Stats.Sites, ev.Stats.Dual,
				ev.Stats.Measured, ev.Elapsed.Round(time.Millisecond))
		}))
	}
	var ck store.Backend // nil: no checkpoint log to commit to
	if *every > 0 {
		ck = ckpt
		opts = append(opts, core.WithCheckpoint(ckpt, *every))
	}
	// -stop-after cancels the rounds' own context at the boundary after
	// round N (at once if the cursor is already there): the runner
	// stops there with the round committed, as on a signal.
	runCtx, stopRun := context.WithCancel(ctx)
	defer stopRun()
	if *stopAfter > 0 {
		if s.RoundsDone() >= *stopAfter {
			stopRun()
		}
		opts = append(opts, core.WithRoundHook(func(done int, _ func() error) error {
			if done >= *stopAfter {
				stopRun()
			}
			return nil
		}))
	}

	err = s.RunContext(runCtx, opts...)
	if stopped := errors.Is(err, context.Canceled) && ctx.Err() == nil; err != nil && !stopped {
		fail(err, s, *every)
	}
	if s.RoundsDone() < cfg.Rounds {
		if !*quiet {
			fmt.Printf("stopped after round %d/%d; checkpoint saved — rerun the same command to continue\n",
				s.RoundsDone(), cfg.Rounds)
		}
		return
	}
	// A drain in the completion tail finds the main study committed;
	// the short side experiment simply reruns on resume.
	if err := cli.Finish(ctx, s, *out, ck, filepath.Join(*out, "checkpoints")); err != nil {
		fail(err, s, *every)
	}
	if !*quiet {
		fmt.Printf("main study: %v\n", s.DB)
		fmt.Printf("world ipv6 day: %v\n", s.V6DayDB)
		fmt.Printf("saved to %s\n", *out)
	}
}

// fail exits on err. A signal drain (context.Canceled) exits through
// cli.Drained: 0 when the shutdown checkpoint makes it resumable, 1
// when checkpointing was off and progress is lost.
func fail(err error, s *core.Scenario, every int) {
	if errors.Is(err, context.Canceled) {
		at := fmt.Sprintf("interrupted at round %d/%d; ", s.RoundsDone(), s.Cfg.Rounds)
		if every > 0 {
			cli.Drained("v6mon", at+"checkpoint saved — rerun the same command to continue", true)
		}
		cli.Drained("v6mon", at+"checkpointing disabled, progress lost", false)
	}
	fatal(err)
}

func fatal(err error) { cli.Fatal("v6mon", err) }
