// Command v6shard runs the sharded campaign machinery directly, for
// layouts v6mon's -shards shortcut cannot express: a coordinator
// accepting workers over TCP, or standalone workers started by hand
// (or by a cluster scheduler) on other machines.
//
// `v6shard coordinate` splits the campaign into site-range shards and
// merges worker results into CSVs byte-identical to a single-process
// run. By default it spawns local worker processes; with -listen it
// instead waits for `v6shard worker -connect` processes to dial in,
// one shard per connection.
//
// Usage:
//
//	v6shard coordinate -out data/ -shards 4 [-seed 42] [-ases 1500]
//	        [-sites 20000] [-rounds 35] [-scenario pack [-set k=v]]
//	        [-faults plan] [-frame-timeout 5m] [-q]
//	v6shard coordinate -out data/ -shards 8 -listen :9653
//	v6shard worker -connect host:9653 [-dial-attempts 20]   # repeat per machine/core
//
// On SIGINT/SIGTERM the coordinator interrupts every live worker, each
// checkpoints its shard, and (when checkpointing is on) the command
// exits 0: rerunning the same command resumes from the checkpoints.
// -faults arms the deterministic chaos layer (internal/fault) for
// recovery drills; a recoverable plan never changes the output bytes.
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
	"v6web/internal/fault"
	"v6web/internal/scenario"
	"v6web/internal/shard"
)

func main() {
	shard.MaybeWorker()
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "worker":
		workerMain(os.Args[2:])
	case "coordinate":
		coordinateMain(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: v6shard coordinate|worker [flags]  (see go doc ./cmd/v6shard)")
	os.Exit(2)
}

func workerMain(args []string) {
	fs := flag.NewFlagSet("v6shard worker", flag.ExitOnError)
	connect := fs.String("connect", "", "coordinator address to dial; without it, one spec is served on stdin/stdout")
	dialAttempts := fs.Int("dial-attempts", 0, "bounded dial retries for the first connection, so a worker started before its coordinator listens still joins (0 uses the default policy)")
	fs.Parse(args)
	var err error
	if *connect != "" {
		// Zero fields, -dial-attempts 0 included, take the defaults.
		err = shard.ServeAddrRetry(*connect, fault.RetryPolicy{MaxAttempts: *dialAttempts})
	} else {
		err = shard.Serve(os.Stdin, os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
}

func coordinateMain(args []string) {
	fs := flag.NewFlagSet("v6shard coordinate", flag.ExitOnError)
	var (
		out    = fs.String("out", "v6web-data", "output directory for the measurement CSVs")
		seed   = fs.Int64("seed", 42, "deterministic scenario seed")
		ases   = fs.Int("ases", 1500, "number of ASes in the synthetic topology")
		sites  = fs.Int("sites", 20000, "ranked-list size (stand-in for the top 1M)")
		rounds = fs.Int("rounds", 35, "weekly monitoring rounds")
		pack   = fs.String("scenario", "", "scenario pack: a built-in name or a pack file (replaces the shape flags)")
		shards = fs.Int("shards", 4, "number of site-range shards / workers")
		listen = fs.String("listen", "", "accept remote `v6shard worker -connect` processes on this address instead of spawning local workers")
		every  = fs.Int("checkpoint-every", 2, "worker checkpoint cadence in rounds (0 disables; a failed worker then retries from scratch)")
		quiet  = fs.Bool("q", false, "suppress progress output")
		faults = fs.String("faults", "", "deterministic chaos plan, e.g. seed=7,fs=0.1,wire.cut=0.3 (see go doc v6web/internal/fault ParseFlag)")
		ftime  = fs.Duration("frame-timeout", 0, "max silence on a worker stream, plus the retry backoff, before the shard attempt is abandoned and retried (0 uses the default watchdog)")
	)
	var sets scenario.Overrides
	fs.Var(&sets, "set", "spec override as a dotted path (repeatable; needs -scenario)")
	fs.Parse(args)

	cfg, err := cli.ResolveConfig(fs, *pack, sets, *seed, *ases, *sites, *rounds, *quiet)
	if err != nil {
		fatal(err)
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	opt := shard.Options{
		Workers:         *shards,
		CheckpointEvery: *every,
		Listen:          *listen,
	}
	if *faults != "" {
		fc, err := fault.ParseFlag(*faults)
		if err != nil {
			fatal(err)
		}
		opt.Faults = fc
	}
	if *ftime > 0 {
		opt.Retry.Timeout = *ftime
	}
	if *every > 0 {
		opt.Dir = filepath.Join(*out, "shards")
	}
	if !*quiet {
		opt.Log = os.Stdout
	}
	start := time.Now()
	s, st, err := shard.Run(ctx, cfg, opt)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			// Graceful shutdown: every live worker was interrupted and
			// checkpointed before Run returned, so (with checkpointing
			// on) the campaign state on disk is whole and resumable.
			if opt.Dir != "" {
				cli.Drained("v6shard", "interrupted; shard checkpoints saved — rerun the same command to continue", true)
			}
			cli.Drained("v6shard", "interrupted; -checkpoint-every was 0, so progress is lost", false)
		}
		fatal(err)
	}
	if !*quiet {
		fmt.Printf("%d shards merged: %s on the wire, %v merging, %d retries, %v total\n",
			st.Shards, byteCount(st.WireBytes), st.MergeDur.Round(time.Millisecond),
			st.Retries, time.Since(start).Round(time.Millisecond))
	}
	if err := s.RunWorldV6DayContext(ctx); err != nil {
		fatal(err)
	}
	if err := cli.SaveCompleted(*out, cfg.Rounds, cfg.Fingerprint(), s.DB, s.V6DayDB); err != nil {
		fatal(err)
	}
	if opt.Dir != "" {
		os.RemoveAll(opt.Dir)
	}
	if !*quiet {
		fmt.Printf("saved to %s\n", *out)
	}
}

func byteCount(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

func fatal(err error) { cli.Fatal("v6shard", err) }
