package cli

// The campaign lifecycle every long-running tool (v6mon, v6shard
// coordinate, v6mond) shares: the signal context that drains it, the
// exit that reports a drain, the one completion step a finished
// campaign goes through, the one reader of the product it writes and
// its CSV export, and the sharded run around that step (RunSharded).

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"v6web/internal/core"
	"v6web/internal/shard"
	"v6web/internal/store"
)

// SignalContext returns a context canceled by SIGINT/SIGTERM: the tool
// checkpoints what it has and, when the state on disk is whole and
// resumable, exits 0 (Drained). The handler unregisters itself as soon
// as the first signal lands (via context.AfterFunc), so a second
// signal kills the process at once instead of being swallowed while
// shutdown checkpoints write. Callers should defer stop.
func SignalContext() (ctx context.Context, stop context.CancelFunc) {
	ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx, stop
}

// Drained finishes a signal-interrupted run: it prints "tool: notice"
// to stderr and exits 0 when the campaign state was saved (the drain
// succeeded, so schedulers do not flag it as a crash, and rerunning
// resumes it) or 1 when checkpointing was off and progress is lost.
func Drained(tool, notice string, saved bool) {
	fmt.Fprintln(os.Stderr, tool+": "+notice)
	if saved {
		os.Exit(0)
	}
	os.Exit(1)
}

// Finish completes a campaign whose main study has run. It is the one
// completion step of every tool that finishes campaigns (v6mon, the
// sharded driver, v6mond), so the completion contract cannot drift
// between them:
//
//  1. commit the finished main study to ck unless ck already holds it
//     (nil ck: the caller keeps no checkpoint log), so an interrupted
//     tail resumes into World IPv6 Day alone;
//  2. run World IPv6 Day, with opts as its RunOptions;
//  3. write the product to dir: both databases as compressed binary
//     snapshots (main.v6db, v6day.v6db; each fsynced, renamed into
//     place and its directory fsynced), then the completion Meta
//     (NextRound == Rounds, Complete set) that marks dir as final
//     rather than a resumable checkpoint;
//  4. remove scratch, the checkpoint directory the product supersedes
//     ("" removes nothing). A failed removal is harmless, since a
//     rerun prefers the finished product, and is ignored.
//
// ctx is checked between the steps, and step 2 honors it: a cancelled
// ctx returns its error with no snapshot and no meta.json written and
// scratch left in place. Step 1 runs regardless, so a drain that lands
// after the last round still commits it.
func Finish(ctx context.Context, s *core.Scenario, dir string, ck store.Backend, scratch string, opts ...core.RunOption) error {
	if s.RoundsDone() < s.Cfg.Rounds {
		return fmt.Errorf("cli: cannot finish a campaign at round %d of %d", s.RoundsDone(), s.Cfg.Rounds)
	}
	if ck != nil {
		if err := s.Commit(ck); err != nil {
			return err
		}
	}
	if err := s.RunWorldV6DayContext(ctx, opts...); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	opt := store.BinaryOptions{Compress: true, Fingerprint: s.Cfg.Fingerprint()}
	if err := s.DB.SaveBinary(filepath.Join(dir, store.SnapMain+store.BinaryExt), opt); err != nil {
		return err
	}
	if err := s.V6DayDB.SaveBinary(filepath.Join(dir, store.SnapV6Day+store.BinaryExt), opt); err != nil {
		return err
	}
	err := store.WriteMeta(dir, store.Meta{
		NextRound:  s.Cfg.Rounds,
		Rounds:     s.Cfg.Rounds,
		ConfigHash: s.Cfg.Fingerprint(),
		Complete:   true,
		SavedAt:    time.Now().UTC(),
	})
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if scratch != "" {
		os.RemoveAll(scratch)
	}
	return nil
}

// OpenCompleted loads a finished campaign's product from dir, as
// Finish wrote it: the main and the World IPv6 Day databases, both of
// which must load. A missing snapshot is a store.ErrNoDatabase error
// naming its file; a product an earlier build wrote as CSV directories
// fails that way too, and its campaign is rerun.
func OpenCompleted(dir string) (main, v6day *store.DB, err error) {
	if main, err = store.Load(filepath.Join(dir, store.SnapMain)); err != nil {
		return nil, nil, err
	}
	if v6day, err = store.Load(filepath.Join(dir, store.SnapV6Day)); err != nil {
		return nil, nil, err
	}
	return main, v6day, nil
}

// ExportCSV writes the finished campaign's product in dir as CSV under
// out: out/main and out/v6day, each the four files DB.Save writes.
// This is `v6report -db dir -csv out`, the one way a product becomes
// CSV.
func ExportCSV(dir, out string) error {
	main, v6day, err := OpenCompleted(dir)
	if err != nil {
		return err
	}
	if err := main.Save(filepath.Join(out, store.SnapMain)); err != nil {
		return err
	}
	return v6day.Save(filepath.Join(out, store.SnapV6Day))
}

// RunSharded is the sharded campaign driver behind `v6mon -shards` and
// `v6shard coordinate`: shard.Run measures cfg in worker processes,
// which checkpoint under out/shards when opt.CheckpointEvery > 0, and
// Finish completes the merged campaign into out, the shard checkpoints
// being its scratch. A signal drain, during the rounds or the World
// IPv6 Day tail, exits through Drained: 0 when shard checkpoints hold
// the progress, 1 when checkpointing is off. Progress goes to stdout
// unless quiet.
func RunSharded(ctx context.Context, tool string, cfg core.Config, out string, opt shard.Options, quiet bool) error {
	if opt.CheckpointEvery > 0 {
		opt.Dir = filepath.Join(out, "shards")
	}
	if !quiet {
		opt.Log = os.Stdout
		fmt.Printf("sharding campaign across %d workers (list: %d sites, rounds: %d)\n",
			opt.Workers, cfg.ListSize, cfg.Rounds)
	}
	start := time.Now()
	s, st, err := shard.Run(ctx, cfg, opt)
	if err == nil {
		if !quiet {
			fmt.Printf("%d shards merged: %s on the wire, %v merging, %d retries, %v total\n",
				st.Shards, byteCount(st.WireBytes), st.MergeDur.Round(time.Millisecond),
				st.Retries, time.Since(start).Round(time.Millisecond))
		}
		err = Finish(ctx, s, out, nil, opt.Dir)
	}
	if errors.Is(err, context.Canceled) {
		// Every live worker was interrupted and checkpointed before
		// shard.Run returned; a rerun resumes from those checkpoints.
		if opt.Dir != "" {
			Drained(tool, "interrupted; shard checkpoints saved — rerun the same command to continue", true)
		}
		Drained(tool, "interrupted; -checkpoint-every was 0, so progress is lost", false)
	}
	if err == nil && !quiet {
		fmt.Printf("saved to %s\n", out)
	}
	return err
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
