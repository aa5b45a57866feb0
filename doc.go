// Package v6web reproduces "Assessing IPv6 Through Web Access — A
// Measurement Study and Its Findings" (Nikkhah, Guérin, Lee, Woundy;
// ACM CoNEXT 2011) as a self-contained Go system.
//
// The paper measured IPv6 adoption and performance by downloading the
// main pages of Alexa's top-1M web sites over both address families
// from six vantage points for a year, correlating the results with
// BGP AS_PATH data. Its two validated hypotheses: H1 — the IPv6 and
// IPv4 data planes perform comparably on identical AS paths; H2 —
// routing differences (missing IPv6 peering) are the primary cause of
// poorer IPv6 performance.
//
// Because the original study is gated on a live-Internet deployment,
// this reproduction builds the whole measurement stack over a
// synthetic Internet: an AS-level topology with business
// relationships and a sparser IPv6 sub-topology (internal/topo),
// Gao–Rexford route computation (internal/bgp), a calibrated data
// plane (internal/netsim), site and server models (internal/websim,
// internal/alexa), and the paper's monitoring tool (internal/measure)
// feeding the full Section 4/5 analysis pipeline (internal/analysis,
// internal/report).
//
// internal/core ties it together as a long-lived measurement
// *campaign*, the shape the paper's 22-month Penn deployment actually
// had: Scenario.RunContext, the one round loop v6mon, the shard
// workers and v6mond share, drives a resumable round cursor
// (NextRound/RoundsDone) under a context, streams typed RoundEvents
// to observers (core.WithObserver), and checkpoints completed rounds
// (core.WithCheckpoint) to a storage backend (store.Backend,
// implemented by the crash-safe, append-only log of binary snapshots,
// store.CheckpointBackend; one Save per checkpoint). Every tool opens
// its campaign through core.Open, which resumes the newest committed
// checkpoint or starts fresh, so a campaign killed at any round
// continues with final results byte-identical to a never-interrupted
// run. A finished campaign is saved in the same
// binary snapshot format (cli.Finish writes main.v6db and v6day.v6db;
// store.Load reads them back); CSV is only an export, `v6report -db
// DIR -csv OUT`. The round is also the parallel unit:
// every started vantage (and the extended site population) monitors
// concurrently on a bounded pool (core.Config.RoundWorkers), with
// events, checkpoints, and CSV exports byte-identical to the serial path —
// analysis then runs as a single pass over a frozen store snapshot
// (store.DB.Freeze), memoized per campaign. internal/sweep fans
// independent campaigns out across a bounded worker pool for
// parameter studies.
//
// Worlds are declared, not hard-coded: internal/scenario defines
// versioned scenario packs — small JSON specs covering topology
// shape, adoption and peering curves, client behavior (the tool's
// worker pool and retry policy), campaign schedule, and report
// selection — that compile to the exact core.Config a campaign runs.
// A built-in registry ships the paper's catalog of worlds
// (baseline-2011, world-ipv6-day, peering-parity, broken-tunnels,
// cdn-rollout, impatient-client, vantage-outages, and paper-scale
// with its CI slice paper-scale-mini; `v6mon -scenario list` prints
// them), each golden-tested byte-identical to the hard-coded
// construction it replaced, and any spec field takes dotted-path
// overrides ("topo.ases=2000") from the CLIs.
//
// The cmd tools expose the same machinery: v6mon runs (and, rerun
// with the same flags, continues) a checkpointed campaign with
// SIGINT-graceful shutdown — or, with -shards N, splits it across
// worker processes with a deterministic merge (cmd/v6shard is the
// multi-machine form) — v6report regenerates every table and figure
// from a saved or fresh campaign (and exports a saved one as CSV),
// v6sweep runs what-if parameter sweeps concurrently (including -over
// sweeps across any scenario-spec field), and v6topo inspects the
// synthetic substrate. All the campaign tools accept -scenario
// <name|file>. examples/resume demonstrates the checkpoint → crash →
// resume cycle end to end; bench_test.go regenerates every exhibit.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured
// comparisons.
package v6web
