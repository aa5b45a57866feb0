// Command v6mon runs the full monitoring campaign — topology, ranked
// list, six vantage points, weekly rounds, World IPv6 Day — through
// the resumable campaign runner, and saves the measurement databases
// as CSV for later analysis with v6report.
//
// The campaign checkpoints its completed rounds (crash-safe,
// append-only directories under <out>/checkpoints) every
// -checkpoint-every rounds and on SIGINT/SIGTERM, so a graceful
// interrupt loses at most the round in flight and a hard kill at
// most the cadence. Restarting with -resume picks up from the last
// checkpoint and produces byte-identical final CSVs to a
// never-interrupted run. Each checkpoint directory holds the main
// database either whole (main.v6db, a base) or as a chain: the last
// base as main.base.v6db plus main.seg-NNNNNN.v6seg segments of what
// changed since, the older files hard-linked from the previous
// checkpoint so every directory loads on its own. -resume also
// continues a campaign checkpointed as CSV by an earlier build.
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
//	v6mon -out data/ -resume          # continue a killed campaign (same flags)
//	v6mon -out data/ -stop-after 10   # checkpoint and exit after round 10
//	v6mon -out data/ -shards 4        # split across 4 local worker processes
//
// With -shards N > 1 the campaign runs as N site-range shards in
// worker processes (internal/shard): each worker measures its slice
// and streams columnar binary frames back; the coordinator merges
// them into CSVs byte-identical to a single-process run. Workers
// checkpoint per shard under <out>/shards, so a killed worker costs
// one shard-round and an interrupted coordinator continues when the
// same command is rerun.
//
// -faults arms the deterministic chaos layer (internal/fault): on the
// sharded path it injects filesystem faults at worker checkpoint
// commits and wire faults on the coordinator's streams, and the
// retry/backoff layer must still deliver byte-identical CSVs. Planned
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
		out       = flag.String("out", "v6web-data", "output directory for the measurement CSVs and checkpoints")
		seed      = flag.Int64("seed", 42, "deterministic scenario seed")
		ases      = flag.Int("ases", 1500, "number of ASes in the synthetic topology")
		sites     = flag.Int("sites", 20000, "ranked-list size (stand-in for the top 1M)")
		rounds    = flag.Int("rounds", 35, "weekly monitoring rounds")
		pack      = flag.String("scenario", "", "scenario pack: a built-in name, a pack file, or \"list\" to print the catalog (replaces -seed/-ases/-sites/-rounds; combining them is an error)")
		quiet     = flag.Bool("q", false, "suppress progress output")
		resume    = flag.Bool("resume", false, "resume the campaign from the last checkpoint under -out")
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
	if *shards > 1 {
		if *resume || *stopAfter > 0 {
			fatal(fmt.Errorf("-shards does not combine with -resume or -stop-after; workers resume from their own shard checkpoints, so just rerun the same command"))
		}
		runSharded(cfg, *out, *shards, *every, fc, *frameTime, *quiet)
		return
	}
	if *frameTime > 0 {
		fatal(fmt.Errorf("-frame-timeout guards the worker streams; it needs -shards > 1"))
	}
	if fc != nil && (fc.Wire != fault.WirePlan{}) {
		fatal(fmt.Errorf("wire faults exist only at the shard boundary; they need -shards > 1"))
	}

	// SIGINT/SIGTERM cancel the campaign at the next round boundary;
	// the runner checkpoints the completed rounds before returning.
	ctx, stop := cli.SignalContext()
	defer stop()

	ckpt := store.NewCheckpointBackend(*out)
	ckpt.Fingerprint = cfg.Fingerprint()
	if fc != nil {
		// Chaos drill for the checkpoint path: filesystem faults land
		// on the checkpoint log's commit points, deterministically per
		// fingerprint. With no retry layer here, a drawn fault is fatal.
		ckpt.Hook = fault.New(*fc, cfg.Fingerprint()).FSHook()
	}

	var s *core.Scenario
	if *resume {
		s, err = core.Resume(cfg, ckpt)
		if err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Printf("resuming from checkpoint: round %d/%d\n", s.RoundsDone(), cfg.Rounds)
		}
	} else {
		s, err = core.NewScenario(cfg)
		if err != nil {
			fatal(err)
		}
		if !*quiet {
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
	if *every > 0 {
		opts = append(opts, core.WithBackend(ckpt), core.WithCheckpoint(*every))
	}
	if *stopAfter > 0 {
		opts = append(opts, core.WithRounds(0, *stopAfter))
	}

	if err := s.RunContext(ctx, opts...); err != nil {
		if errors.Is(err, context.Canceled) {
			interrupted(s, cfg, *every)
		}
		fatal(err)
	}
	if s.RoundsDone() < cfg.Rounds {
		if !*quiet {
			fmt.Printf("stopped after round %d/%d; checkpoint saved — rerun with -resume to continue\n",
				s.RoundsDone(), cfg.Rounds)
		}
		return
	}

	if err := s.RunWorldV6DayContext(ctx); err != nil {
		if errors.Is(err, context.Canceled) {
			// The main study is checkpointed; the short side experiment
			// simply reruns on resume.
			interrupted(s, cfg, *every)
		}
		fatal(err)
	}

	if !*quiet {
		fmt.Printf("main study: %v\n", s.DB)
		fmt.Printf("world ipv6 day: %v\n", s.V6DayDB)
	}
	if err := cli.SaveCompleted(*out, cfg.Rounds, cfg.Fingerprint(), s.DB, s.V6DayDB); err != nil {
		fatal(err)
	}
	// The final CSVs are the product; the checkpoint log (up to Keep
	// full database copies) is scratch once the campaign completed.
	if *every > 0 {
		if err := os.RemoveAll(filepath.Join(*out, "checkpoints")); err != nil && !*quiet {
			fmt.Fprintf(os.Stderr, "v6mon: could not remove checkpoints: %v\n", err)
		}
	}
	if !*quiet {
		fmt.Printf("saved to %s\n", *out)
	}
}

// runSharded is the -shards path: worker processes measure site-range
// slices, the coordinator merges their frames, and everything after
// the main study (World IPv6 Day, saving) runs locally as usual.
func runSharded(cfg core.Config, out string, shards, every int, fc *fault.Config, frameTime time.Duration, quiet bool) {
	ctx, stop := cli.SignalContext()
	defer stop()

	opt := shard.Options{Workers: shards, CheckpointEvery: every, Faults: fc}
	if frameTime > 0 {
		opt.Retry.Timeout = frameTime
	}
	if every > 0 {
		opt.Dir = filepath.Join(out, "shards")
	}
	if !quiet {
		opt.Log = os.Stdout
		fmt.Printf("sharding campaign across %d workers (list: %d sites, rounds: %d)\n",
			shards, cfg.ListSize, cfg.Rounds)
	}
	start := time.Now()
	s, st, err := shard.Run(ctx, cfg, opt)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			if opt.Dir != "" {
				cli.Drained("v6mon", "interrupted; shard checkpoints saved — rerun the same command to continue", true)
			}
			cli.Drained("v6mon", "interrupted; -checkpoint-every was 0, so progress is lost", false)
		}
		fatal(err)
	}
	if !quiet {
		fmt.Printf("%d shards merged in %v total (%d retries, merge %v)\n",
			st.Shards, time.Since(start).Round(time.Millisecond), st.Retries,
			st.MergeDur.Round(time.Millisecond))
	}
	if err := s.RunWorldV6DayContext(ctx); err != nil {
		fatal(err)
	}
	if !quiet {
		fmt.Printf("main study: %v\n", s.DB)
		fmt.Printf("world ipv6 day: %v\n", s.V6DayDB)
	}
	if err := cli.SaveCompleted(out, cfg.Rounds, cfg.Fingerprint(), s.DB, s.V6DayDB); err != nil {
		fatal(err)
	}
	if opt.Dir != "" {
		if err := os.RemoveAll(opt.Dir); err != nil && !quiet {
			fmt.Fprintf(os.Stderr, "v6mon: could not remove shard checkpoints: %v\n", err)
		}
	}
	if !quiet {
		fmt.Printf("saved to %s\n", out)
	}
}

// interrupted reports a graceful shutdown and exits: 0 when the
// shutdown checkpoint makes the drain resumable, 1 when checkpointing
// was off and progress is lost.
func interrupted(s *core.Scenario, cfg core.Config, every int) {
	if every > 0 {
		cli.Drained("v6mon", fmt.Sprintf("interrupted at round %d/%d; checkpoint saved — rerun with -resume to continue",
			s.RoundsDone(), cfg.Rounds), true)
	}
	cli.Drained("v6mon", fmt.Sprintf("interrupted at round %d/%d; checkpointing disabled, progress lost",
		s.RoundsDone(), cfg.Rounds), false)
}

func fatal(err error) { cli.Fatal("v6mon", err) }
