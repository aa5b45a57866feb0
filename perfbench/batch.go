package main

// The batch workloads: the paper-scale-mini campaign in-process
// (campaign) and through the shard coordinator (sharded), and World
// IPv6 Day over a full day at paper scale (v6day).

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"v6web/internal/alexa"
	"v6web/internal/analysis"
	"v6web/internal/core"
	"v6web/internal/report"
	"v6web/internal/shard"
	"v6web/internal/store"
	"v6web/internal/topo"
)

// shardWorkers is the sharded workload's local worker process count,
// what `v6mon -shards 2` runs.
const shardWorkers = 2

// runCampaign runs paper-scale-mini the way v6mon does by default:
// every round, a binary checkpoint every 5 rounds and after the last,
// then World IPv6 Day, then the `v6report -db` pass from memory.
func (b *bench) runCampaign(ctx context.Context) error {
	cfg, err := b.config("paper-scale-mini")
	if err != nil {
		return err
	}
	s, err := setupPasses(b, func(id int) (*core.Scenario, error) { return b.newScenario(cfg, id) }, nil)
	if err != nil {
		return err
	}
	ck := store.NewCheckpointBackend(filepath.Join(b.data, "campaign"))
	ck.Fingerprint = cfg.Fingerprint()
	var main, v6 roundTally
	err = b.timedPhase(func(id int) error {
		for s.RoundsDone() < cfg.Rounds {
			if err := ctx.Err(); err != nil {
				return err
			}
			if _, err := b.tr.time("NextRound", id, func(int) error { return s.NextRound(main.observe) }); b.op(err) != nil {
				return err
			}
			if done := s.RoundsDone(); done%checkpointEvery == 0 || done == cfg.Rounds {
				if _, err := b.tr.time("Checkpoint", id, func(int) error { return s.Checkpoint(ck) }); b.op(err) != nil {
					return err
				}
			}
		}
		return b.v6DayStep(ctx, s, &v6, id)
	})
	if err != nil {
		return err
	}
	f := facts{}
	f.setInt("main.fetch_fails", main.fetchFails)
	if err := b.finishBatch(cfg, s, &main, &v6, f); err != nil {
		return err
	}
	if b.tr.on {
		spans := b.tr.snapshot()
		cks := durations(spans, "Checkpoint")
		_, size := newestCheckpoint(filepath.Join(ck.Dir, "checkpoints"))
		b.roundLayer(&main, &v6, sum(durations(spans, "NextRound")))
		b.setLayer("store.checkpoint_s", sum(cks))
		b.setLayer("store.checkpoint_count", float64(len(cks)))
		b.setLayer("store.checkpoint_mb", float64(size)/mib)
	}
	return nil
}

// runSharded runs the same campaign through shard.Run with local
// worker processes and per-shard checkpoints, as `v6mon -shards 2`
// does, then the same World IPv6 Day step and report pass. Its
// outputs must equal runCampaign's at the same seed.
func (b *bench) runSharded(ctx context.Context) error {
	cfg, err := b.config("paper-scale-mini")
	if err != nil {
		return err
	}
	// The coordinator builds its scenario inside shard.Run; these
	// passes time that same set-up on its own.
	if _, err := setupPasses(b, func(id int) (*core.Scenario, error) { return b.newScenario(cfg, id) }, nil); err != nil {
		return err
	}
	var (
		s      *core.Scenario
		st     *shard.Stats
		v6     roundTally
		rounds = shardRounds{}
		opt    = shard.Options{Workers: shardWorkers, Dir: filepath.Join(b.data, "shards"), CheckpointEvery: checkpointEvery, Log: rounds}
		ckw    *ckWatch
	)
	if b.tr.on {
		ckw = watchCheckpoints(filepath.Join(opt.Dir, "*", "checkpoints"))
	}
	err = b.timedPhase(func(id int) error {
		if _, err := b.tr.time("shard.Run", id, func(int) (err error) {
			s, st, err = shard.Run(ctx, cfg, opt)
			return err
		}); err != nil {
			return b.op(err)
		}
		b.attempted += int64(st.Shards + st.Retries)
		b.failed += int64(st.Retries)
		return b.v6DayStep(ctx, s, &v6, id)
	})
	if ckw != nil {
		ckw.close()
	}
	if err != nil {
		return err
	}
	// The workers' fetch failures do not cross the wire.
	main := rounds.tally()
	if err := b.finishBatch(cfg, s, &main, &v6, facts{}); err != nil {
		return err
	}
	if b.tr.on {
		sites, _, _, _ := s.DB.Counts()
		run := sum(durations(b.tr.snapshot(), "shard.Run"))
		b.roundLayer(&main, &v6, 0)
		ckw.report(b)
		b.setLayer("shard.merge_s", st.MergeDur.Seconds())
		b.setLayer("shard.merge_share", st.MergeDur.Seconds()/run)
		b.setLayer("shard.wire_bytes_per_site", float64(st.WireBytes)/float64(sites))
		b.setLayer("shard.attempts", float64(st.Shards+st.Retries))
		b.setLayer("shard.retries", float64(st.Retries))
		b.setLayer("shard.worker_peak_rss_mb", peakRSSMB(syscall.RUSAGE_CHILDREN))
	}
	return nil
}

// shardRounds collects the coordinator's progress lines, "shard N:
// round R done (S sites, D dual, M measured)", which carry the counts
// of the rounds that ran in the worker processes. A shard round
// reported twice (by a retried attempt) counts once.
type shardRounds map[[2]int][3]int64

func (r shardRounds) Write(p []byte) (int, error) {
	for _, line := range strings.Split(string(p), "\n") {
		var sh, rd int
		var sites, dual, measured int64
		if n, _ := fmt.Sscanf(line, "shard %d: round %d done (%d sites, %d dual, %d measured)", &sh, &rd, &sites, &dual, &measured); n == 5 {
			r[[2]int{sh, rd}] = [3]int64{sites, dual, measured}
		}
	}
	return len(p), nil
}

// tally sums the collected rounds; their busy time stays unknown.
func (r shardRounds) tally() roundTally {
	var t roundTally
	for _, c := range r {
		t.visits += c[0]
		t.dual += c[1]
		t.measured += c[2]
	}
	return t
}

// finishBatch runs the report passes of a paper-scale-mini campaign,
// checks its outputs (adding them to f), and (traced) derives the
// layer metrics both ways of running it share.
func (b *bench) finishBatch(cfg core.Config, s *core.Scenario, main, v6 *roundTally, f facts) error {
	rep := b.reportPasses(func(id int) []byte { return b.studyReport(id, s.DB, s.V6DayDB) })
	f.digest("report_sha256", rep)
	f.counts("main", s.DB)
	f.counts("v6day", s.V6DayDB)
	f.setInt("main.visits", main.visits)
	f.setInt("v6day.visits", v6.visits)
	f.setInt("v6day.fetch_fails", v6.fetchFails)
	if _, dns, _, _ := s.DB.Counts(); int64(dns) != main.visits {
		b.problem("main DNS rows %d != site-visits %d reported by round events", dns, main.visits)
	}
	if err := b.checkFacts(b.factsKey("paper-scale-mini", cfg.Seed), f); err != nil {
		return err
	}
	if b.tr.on {
		b.storeLayer(s.DB, s.V6DayDB, s.DB)
		b.heapLayer(s.TrackedSites() + cfg.Extended)
		b.setLayer("report.bytes", float64(len(rep)))
	}
	runtime.KeepAlive(s)
	return nil
}

// runV6Day runs World IPv6 Day at paper scale over a full day of
// 30-minute rounds: set-up fast-forwards the 1M-site list through the
// campaign, then the 3 V6-Day vantages measure its ~5.5k participants
// 48 times, then the V6-Day report pass renders Tables 10 and 12.
func (b *bench) runV6Day(ctx context.Context) error {
	cfg, err := b.config("paper-scale", "list.extended=0", "schedule.v6day_rounds=48")
	if err != nil {
		return err
	}
	s, err := setupPasses(b, func(id int) (*core.Scenario, error) {
		s, err := b.newScenario(cfg, id)
		if err != nil {
			return nil, err
		}
		b.tr.do("FastForward", id, func() { s.FastForward(cfg.Rounds) })
		return s, nil
	}, nil)
	if err != nil {
		return err
	}
	var v6 roundTally
	if err := b.timedPhase(func(id int) error { return b.v6DayStep(ctx, s, &v6, id) }); err != nil {
		return err
	}
	rep := b.reportPasses(func(id int) []byte {
		var snap *store.Snapshot
		b.tr.do("Freeze", id, func() { snap = s.V6DayDB.Freeze() })
		var st *analysis.Study
		b.tr.do("StudyOfSnapshot", id, func() { st = report.StudyOfSnapshot(snap, report.V6DayThresholds()) })
		var buf bytes.Buffer
		b.tr.do("RenderStudy", id, func() {
			report.Table10(&buf, st.Table8())
			report.Table12(&buf, st.Table11())
		})
		return buf.Bytes()
	})
	f := facts{}
	f.digest("report_sha256", rep)
	f.counts("v6day", s.V6DayDB)
	f.setInt("v6day.visits", v6.visits)
	f.setInt("v6day.fetch_fails", v6.fetchFails)
	if err := b.checkFacts(b.factsKey("v6day paper-scale", cfg.Seed), f); err != nil {
		return err
	}
	if b.tr.on {
		b.setLayer("core.fastforward_s", median(durations(b.tr.snapshot(), "FastForward")))
		b.roundLayer(&roundTally{}, &v6, 0)
		b.storeLayer(s.DB, s.V6DayDB, s.V6DayDB)
		b.heapLayer(s.TrackedSites())
		b.setLayer("report.bytes", float64(len(rep)))
	}
	runtime.KeepAlive(s)
	return nil
}

// roundLayer derives the core and measure metrics from the round
// events of the main rounds and of World IPv6 Day. roundsS is the wall
// time of the main rounds, 0 where they did not run in this process.
func (b *bench) roundLayer(main, v6 *roundTally, roundsS float64) {
	b.setLayer("measure.visits", float64(main.visits+v6.visits))
	b.setLayer("measure.dual", float64(main.dual+v6.dual))
	b.setLayer("measure.measured", float64(main.measured+v6.measured))
	b.setLayer("measure.v6day_busy_s", v6.busy.Seconds())
	if roundsS > 0 && main.visits > 0 {
		b.setLayer("core.rounds_s", roundsS)
		b.setLayer("core.pool_util", main.busy.Seconds()/(roundsS*float64(b.host.GoMaxProcs)))
		b.setLayer("measure.busy_s", main.busy.Seconds())
		b.setLayer("measure.ns_per_visit", float64(main.busy.Nanoseconds())/float64(main.visits))
	}
}

// newestCheckpoint returns the sequence number and size of the newest
// committed checkpoint (ck-NNNNNN) in a checkpoint log; seq is -1 when
// the log holds none.
func newestCheckpoint(log string) (seq int, size int64) {
	cks, _ := filepath.Glob(filepath.Join(log, "ck-*"))
	if len(cks) == 0 {
		return -1, 0
	}
	sort.Strings(cks)
	newest := cks[len(cks)-1]
	if _, err := fmt.Sscanf(filepath.Base(newest), "ck-%d", &seq); err != nil {
		return -1, 0
	}
	return seq, dirBytes(newest)
}

// storeLayer derives the download-phase metrics from the samples in
// main and v6day, and the delta encoder's rows per stored run from dns.
func (b *bench) storeLayer(main, v6day, dns *store.DB) {
	var samples, downloads, ciok int64
	for _, db := range []*store.DB{main, v6day} {
		snap := db.Freeze()
		for _, v := range snap.Vantages() {
			snap.ForEachSeries(v, func(_ alexa.SiteID, _ topo.Family, series []store.Sample) {
				for _, smp := range series {
					samples++
					downloads += int64(smp.Downloads)
					if smp.CIOK {
						ciok++
					}
				}
			})
		}
	}
	b.setLayer("measure.downloads", float64(downloads))
	if samples > 0 {
		b.setLayer("measure.downloads_per_sample", float64(downloads)/float64(samples))
		b.setLayer("measure.ci_ok_frac", float64(ciok)/float64(samples))
	}
	var rows, runs int
	for _, v := range dns.Vantages() {
		r, n, _ := dns.DNSStats(v)
		rows += r
		runs += n
	}
	if runs > 0 {
		b.setLayer("store.dns_rows_per_run", float64(rows)/float64(runs))
	}
}

// heapLayer reports the live heap after a forced GC, and its growth
// over the run spread across the sites the campaign holds.
func (b *bench) heapLayer(sites int) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.heapMetrics(ms.HeapAlloc, sites)
}

func (b *bench) heapMetrics(heap uint64, sites int) {
	b.setLayer("store.live_heap_mb", float64(heap)/mib)
	if heap > b.heap0 && sites > 0 {
		b.setLayer("store.bytes_per_site", float64(heap-b.heap0)/float64(sites))
	}
}

// traceMetrics fills the layer metrics every traced pass derives the
// same way, then reports 0 for the ones this workload's entry in
// unmeasured names. Any other metric left unmeasured fails the run.
func (b *bench) traceMetrics() {
	spans := b.tr.snapshot()
	set := func(name string, v float64) {
		if _, ok := b.layer[name]; !ok {
			b.setLayer(name, v)
		}
	}
	for name, span := range map[string]string{
		"store.load_s":     "store.Load",
		"store.freeze_s":   "Freeze",
		"analysis.study_s": "StudyOfSnapshot",
		"report.render_s":  "RenderStudy",
	} {
		if ds := durations(spans, span); len(ds) > 0 {
			set(name, median(ds))
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	set("runtime.gc_cycles", float64(ms.NumGC))
	set("runtime.gc_pause_ms", float64(ms.PauseTotalNs)/1e6)
	set("runtime.alloc_mb", float64(ms.TotalAlloc)/mib)
	overhead := b.tr.overhead().Seconds()
	set("trace.overhead_s", overhead)
	if wall, ok := b.layer["wall.campaign_s"]; ok {
		set("trace.overhead_pct", 100*overhead/wall.Value)
	}
	for _, g := range unmeasured[b.opt.workload] {
		var names []string
		for _, d := range perLayer {
			if _, ok := b.layer[d.Name]; !ok && g.covers(d.Name) {
				b.setLayer(d.Name, 0)
				names = append(names, d.Name)
			}
		}
		if len(names) > 0 {
			b.logf("unmeasured (reported as 0): %s — %s", strings.Join(names, " "), g.reason)
		}
	}
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.logf("self time   %-30s %12.6f s over %d spans", name, self[name], len(durations(spans, name)))
	}
}
