// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per exhibit), plus ablations over the
// design choices DESIGN.md calls out. Each benchmark reports the
// exhibit's shape metrics (rows, shares, speeds), so one pass is a
// compact reproduction summary that also checks itself:
//
//	go test -run '^$' -bench . -benchtime 1x .
//
// A shape metric is a pure function of code and seed, and
// testdata/shape_golden.json pins each one exactly (see reportShape):
// a run whose shapes moved fails. A change that moves a shape on
// purpose regenerates the file with
//
//	go test -run '^$' -bench . -benchtime 1x -update-golden .
//
// and says in CHANGES.md which shapes moved and why.
package v6web

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/analysis"
	"v6web/internal/bgp"
	"v6web/internal/core"
	"v6web/internal/daemon"
	"v6web/internal/fault"
	"v6web/internal/netsim"
	"v6web/internal/scenario"
	"v6web/internal/shard"
	"v6web/internal/stats"
	"v6web/internal/store"
	"v6web/internal/topo"
	"v6web/internal/websim"
)

// TestMain lets BenchmarkShardedPaperScaleMini re-exec this test
// binary as shard worker processes, and reads and settles the shape
// golden around the run.
func TestMain(m *testing.M) {
	shard.MaybeWorker()
	shapes.golden, shapes.readErr = readShapeGolden()
	code := m.Run()
	if err := settleShapes(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		code = 1
	}
	os.Exit(code)
}

var updateGolden = flag.Bool("update-golden", false, "rewrite "+shapeGoldenFile+" from this run's shape metrics")

const shapeGoldenFile = "testdata/shape_golden.json"

// shapeSet maps a benchmark name (b.Name(), sub-benchmarks included)
// to its shape metrics by unit.
type shapeSet map[string]map[string]float64

var shapes = struct {
	mu       sync.Mutex
	golden   shapeSet
	readErr  error
	observed shapeSet
}{observed: shapeSet{}}

func readShapeGolden() (shapeSet, error) {
	data, err := os.ReadFile(shapeGoldenFile)
	if err != nil {
		return nil, err
	}
	var set shapeSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", shapeGoldenFile, err)
	}
	return set, nil
}

// reportShape reports a shape metric and checks it against the golden:
// a value that differs from the golden's, or that the golden lacks,
// fails the benchmark. Only metrics that are pure functions of code
// and seed go through it; those that read the clock or the Go heap
// (req/s, quiet-injector-overhead, merge-ns, bytes/site) use plain
// b.ReportMetric.
func reportShape(b *testing.B, v float64, unit string) {
	b.Helper()
	b.ReportMetric(v, unit)
	name := b.Name()
	shapes.mu.Lock()
	if shapes.observed[name] == nil {
		shapes.observed[name] = map[string]float64{}
	}
	shapes.observed[name][unit] = v
	want, pinned := shapes.golden[name][unit]
	readErr := shapes.readErr
	shapes.mu.Unlock()
	switch {
	case *updateGolden:
	case readErr != nil:
		b.Errorf("shape %s %s = %v: golden unreadable (regenerate with -update-golden): %v", name, unit, v, readErr)
	case !pinned:
		b.Errorf("shape %s %s = %v is not in %s (regenerate with -update-golden)", name, unit, v, shapeGoldenFile)
	case v != want:
		b.Errorf("shape %s %s moved: golden %v, observed %v", name, unit, want, v)
	}
}

// settleShapes runs once the whole run is over. With -update-golden it
// rewrites the golden, replacing the entries of each benchmark that
// reported shapes and keeping those of benchmarks that did not run.
// Otherwise it fails the run if a benchmark left out a shape the
// golden pins for it.
func settleShapes() error {
	if len(shapes.observed) == 0 {
		return nil
	}
	if *updateGolden {
		set := shapeSet{}
		for name, units := range shapes.golden {
			set[name] = units
		}
		for name, units := range shapes.observed {
			set[name] = units
		}
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(shapeGoldenFile), 0o755); err != nil {
			return err
		}
		return os.WriteFile(shapeGoldenFile, append(data, '\n'), 0o644)
	}
	var missing []string
	for name, units := range shapes.observed {
		for unit, want := range shapes.golden[name] {
			if _, ok := units[unit]; !ok {
				missing = append(missing, fmt.Sprintf("  %s %s (golden %v)", name, unit, want))
			}
		}
	}
	if len(missing) == 0 {
		return nil
	}
	sort.Strings(missing)
	return fmt.Errorf("shape metrics pinned in %s but not reported:\n%s", shapeGoldenFile, strings.Join(missing, "\n"))
}

// The shared scenario is built once; the per-table benchmarks measure
// the analysis that regenerates each exhibit from the stored data.
var (
	benchOnce sync.Once
	benchSc   *core.Scenario
	benchErr  error
)

func benchScenario(b *testing.B) *core.Scenario {
	b.Helper()
	benchOnce.Do(func() {
		cfg := core.DefaultConfig(42)
		cfg.NASes = 1000
		cfg.ListSize = 10000
		cfg.Extended = 2000
		benchSc, benchErr = core.NewScenario(cfg)
		if benchErr != nil {
			return
		}
		if benchErr = benchSc.RunContext(context.Background()); benchErr != nil {
			return
		}
		benchErr = benchSc.RunWorldV6DayContext(context.Background())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSc
}

func benchStudy(b *testing.B) *analysis.Study {
	return benchScenario(b).Study()
}

// --- Figures ---------------------------------------------------------

func BenchmarkFig1Reachability(b *testing.B) {
	b.ReportAllocs()
	s := benchScenario(b)
	b.ResetTimer()
	var last float64
	for i := 0; i < b.N; i++ {
		_, series := s.Fig1()
		last = series[len(series)-1]
	}
	reportShape(b, 100*last, "%final-reachability")
}

func BenchmarkFig3aRankReachability(b *testing.B) {
	b.ReportAllocs()
	s := benchScenario(b)
	b.ResetTimer()
	var fr [6]float64
	for i := 0; i < b.N; i++ {
		fr = s.Fig3a()
	}
	reportShape(b, 100*fr[0], "%top10")
	reportShape(b, 100*fr[5], "%top1M")
}

func BenchmarkFig3bV6FasterOdds(b *testing.B) {
	b.ReportAllocs()
	s := benchScenario(b)
	b.ResetTimer()
	var top, ext float64
	for i := 0; i < b.N; i++ {
		top, ext = s.Fig3b("Penn")
	}
	reportShape(b, 100*top, "%v6faster-top1M")
	reportShape(b, 100*ext, "%v6faster-5M")
}

// --- Tables ----------------------------------------------------------

func BenchmarkTable2Profiles(b *testing.B) {
	b.ReportAllocs()
	study := benchStudy(b)
	b.ResetTimer()
	var rows []analysis.ProfileRow
	for i := 0; i < b.N; i++ {
		rows, _ = study.Table2()
	}
	reportShape(b, float64(rows[0].SitesKept), "sites-kept-v0")
	reportShape(b, float64(rows[0].CrossV4), "ases-crossed-v4")
	reportShape(b, float64(rows[0].CrossV6), "ases-crossed-v6")
}

func BenchmarkTable3FailureCauses(b *testing.B) {
	b.ReportAllocs()
	study := benchStudy(b)
	b.ResetTimer()
	var rows []analysis.FailureRow
	for i := 0; i < b.N; i++ {
		rows = study.Table3()
	}
	r := rows[0]
	reportShape(b, float64(r.Insufficient), "insufficient")
	reportShape(b, float64(r.TrendDown+r.TrendUp), "trends")
	reportShape(b, float64(r.TransUp+r.TransDown), "transitions")
}

func BenchmarkTable4Classification(b *testing.B) {
	b.ReportAllocs()
	study := benchStudy(b)
	b.ResetTimer()
	var rows []analysis.ClassRow
	for i := 0; i < b.N; i++ {
		rows = study.Table4()
	}
	var sp, dp, dl int
	for _, r := range rows {
		sp += r.SP
		dp += r.DP
		dl += r.DL
	}
	reportShape(b, float64(sp), "SP-sites")
	reportShape(b, float64(dp), "DP-sites")
	reportShape(b, float64(dl), "DL-sites")
}

func BenchmarkTable5RemovedBias(b *testing.B) {
	b.ReportAllocs()
	study := benchStudy(b)
	b.ResetTimer()
	var rows []analysis.RemovedBiasRow
	for i := 0; i < b.N; i++ {
		rows = study.Table5()
	}
	r := rows[0]
	reportShape(b, float64(r.SPGood+r.DPGood+r.DLGood), "removed-good")
	reportShape(b, float64(r.SPBad+r.DPBad+r.DLBad), "removed-bad")
}

func BenchmarkTable6DLPerf(b *testing.B) {
	b.ReportAllocs()
	study := benchStudy(b)
	b.ResetTimer()
	var rows []analysis.DLPerfRow
	for i := 0; i < b.N; i++ {
		rows = study.Table6()
	}
	reportShape(b, 100*rows[0].FracV4GE, "%v4-ge-v6")
	reportShape(b, rows[0].MeanV4, "v4-kBps")
	reportShape(b, rows[0].MeanV6, "v6-kBps")
}

func BenchmarkTable7HopCountDLDP(b *testing.B) {
	b.ReportAllocs()
	study := benchStudy(b)
	b.ResetTimer()
	var rows []analysis.HopRow
	for i := 0; i < b.N; i++ {
		rows = study.Table7()
	}
	// Mean v4 speed at the lowest and highest populated buckets of
	// the first vantage.
	r := rows[0]
	lo, hi := -1.0, -1.0
	for bkt := 0; bkt < analysis.HopBuckets; bkt++ {
		if r.Count[bkt] >= 5 {
			if lo < 0 {
				lo = r.Speed[bkt]
			}
			hi = r.Speed[bkt]
		}
	}
	reportShape(b, lo, "v4-lowhop-kBps")
	reportShape(b, hi, "v4-highhop-kBps")
}

func BenchmarkTable8SPH1(b *testing.B) {
	b.ReportAllocs()
	study := benchStudy(b)
	b.ResetTimer()
	var rows []analysis.SPRow
	for i := 0; i < b.N; i++ {
		rows = study.Table8()
	}
	var comp, zero float64
	for _, r := range rows {
		comp += r.FracComparable
		zero += r.FracZeroMode
	}
	reportShape(b, 100*comp/float64(len(rows)), "%SP-comparable")
	reportShape(b, 100*zero/float64(len(rows)), "%SP-zeromode")
}

func BenchmarkTable9HopCountSP(b *testing.B) {
	b.ReportAllocs()
	study := benchStudy(b)
	b.ResetTimer()
	var rows []analysis.HopRow
	for i := 0; i < b.N; i++ {
		rows = study.Table9()
	}
	// v6/v4 speed ratio in the best-populated bucket: H1 says ~1.
	var ratio float64 = -1
	for i := 0; i+1 < len(rows); i += 2 {
		for bkt := 0; bkt < analysis.HopBuckets; bkt++ {
			if rows[i].Count[bkt] >= 5 && rows[i+1].Count[bkt] >= 5 {
				ratio = rows[i+1].Speed[bkt] / rows[i].Speed[bkt]
			}
		}
	}
	reportShape(b, ratio, "v6/v4-speed-ratio")
}

func BenchmarkTable10WorldV6DaySP(b *testing.B) {
	b.ReportAllocs()
	s := benchScenario(b)
	b.ResetTimer()
	var rows []analysis.SPRow
	for i := 0; i < b.N; i++ {
		rows = s.V6DayStudy().Table8()
	}
	var comp float64
	var n int
	for _, r := range rows {
		if r.NASes > 0 {
			comp += r.FracComparable
			n++
		}
	}
	if n > 0 {
		reportShape(b, 100*comp/float64(n), "%v6day-SP-comparable")
	}
}

func BenchmarkTable11DPH2(b *testing.B) {
	b.ReportAllocs()
	study := benchStudy(b)
	b.ResetTimer()
	var rows []analysis.DPRow
	for i := 0; i < b.N; i++ {
		rows = study.Table11()
	}
	var comp float64
	for _, r := range rows {
		comp += r.FracComparable
	}
	reportShape(b, 100*comp/float64(len(rows)), "%DP-comparable")
}

func BenchmarkTable12WorldV6DayDP(b *testing.B) {
	b.ReportAllocs()
	s := benchScenario(b)
	b.ResetTimer()
	var rows []analysis.DPRow
	for i := 0; i < b.N; i++ {
		rows = s.V6DayStudy().Table11()
	}
	var comp float64
	var n int
	for _, r := range rows {
		if r.NASes > 0 {
			comp += r.FracComparable
			n++
		}
	}
	if n > 0 {
		reportShape(b, 100*comp/float64(n), "%v6day-DP-comparable")
	}
}

func BenchmarkTable13GoodASCoverage(b *testing.B) {
	b.ReportAllocs()
	study := benchStudy(b)
	b.ResetTimer()
	var rows []analysis.CoverageRow
	for i := 0; i < b.N; i++ {
		rows = study.Table13()
	}
	// Mass in the [50,75) band, the paper's mode.
	var mid float64
	for _, r := range rows {
		mid += r.Frac[2]
	}
	reportShape(b, 100*mid/float64(len(rows)), "%coverage-50-75")
}

// BenchmarkScenarioRun times the end-to-end campaign at the shared
// bench scale — construction (topology, routing, catalogue) plus
// every monitoring round and the World IPv6 Day side experiment.
// This is the number the hot-path optimizations target; the
// per-exhibit benchmarks above exclude it via b.ResetTimer.
func BenchmarkScenarioRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(42)
		cfg.NASes = 1000
		cfg.ListSize = 10000
		cfg.Extended = 2000
		s, err := core.NewScenario(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
		if err := s.RunWorldV6DayContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudyAnalysis isolates the analysis pass at the shared
// bench scale: one un-memoized full study — store snapshot, per-
// vantage single-pass aggregation — plus every Section 5 table
// rendered from it. This is the number the single-pass pipeline and
// memoized partitions target; the per-exhibit benchmarks above go
// through the scenario's memoized study instead.
func BenchmarkStudyAnalysis(b *testing.B) {
	b.ReportAllocs()
	s := benchScenario(b)
	b.ResetTimer()
	var study *analysis.Study
	for i := 0; i < b.N; i++ {
		study = s.ComputeStudy()
		study.Table2()
		study.Table3()
		study.Table4()
		study.Table5()
		study.Table6()
		study.Table7()
		study.Table8()
		study.Table9()
		study.Table11()
		study.Table13()
	}
	rows, _ := study.Table2()
	reportShape(b, float64(rows[0].SitesKept), "sites-kept-v0")
	reportShape(b, float64(len(study.Vantages)), "vantages")
}

// BenchmarkFullStudy measures the end-to-end pipeline (topology,
// routing, all rounds, analysis) at reduced scale — the repo's
// heaviest macro-benchmark.
func BenchmarkFullStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(int64(100 + i))
		cfg.NASes = 500
		cfg.ListSize = 4000
		cfg.Extended = 0
		cfg.Rounds = 20
		cfg.Vantages = core.ScaledVantages(cfg.Rounds)
		s, err := core.NewScenario(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
		_ = s.Study().Table8()
	}
}

// BenchmarkPaperScale measures the memory shape of a paper-scale
// campaign on the columnar store: live heap bytes per site after the
// campaign and DNS state transitions per site (the delta encoder
// stores O(transitions), not O(sites*rounds)). It runs the
// paper-scale-mini pack by default, and CI runs it under a 2 GiB
// GOMEMLIMIT as the store's memory guard; the golden pins its shapes
// except bytes/site, which reads the Go heap. Set
// V6WEB_PAPER_SCALE=full to run the true 1M/5M campaign (several
// minutes, needs a multi-core box — see EXPERIMENTS.md); the golden
// pins only the mini pack, so that run's shapes are reported unchecked.
func BenchmarkPaperScale(b *testing.B) {
	b.ReportAllocs()
	pack, report := "paper-scale-mini", reportShape
	if os.Getenv("V6WEB_PAPER_SCALE") == "full" {
		pack, report = "paper-scale", (*testing.B).ReportMetric
	}
	comp, err := scenario.LoadCompiled(pack, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := core.NewScenario(comp.Config)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
		if err := s.RunWorldV6DayContext(context.Background()); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)

		sites, dnsRows, sampleRows, _ := s.DB.Counts()
		var runs, histSites int
		for _, v := range s.DB.Vantages() {
			_, r, n := s.DB.DNSStats(v)
			runs += r
			histSites += n
		}
		live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
		b.ReportMetric(live/float64(sites), "bytes/site")
		report(b, float64(runs-histSites)/float64(histSites), "dns-transitions/site")
		report(b, float64(dnsRows)/float64(runs), "dns-rows/run")
		report(b, float64(sampleRows), "sample-rows")
	}
}

// BenchmarkShardedPaperScaleMini runs the same paper-scale-mini
// campaign as BenchmarkPaperScale, but split across 4 local worker
// processes via the coordinator (internal/shard). On a multi-core
// host the wall-clock time over BenchmarkPaperScale is the campaign
// speedup; the reported merge time and wire bytes per site bound the
// coordinator's sequential overhead — the merge must stay a small
// fraction of a worker's round work for sharding to pay off.
func BenchmarkShardedPaperScaleMini(b *testing.B) {
	b.ReportAllocs()
	comp, err := scenario.LoadCompiled("paper-scale-mini", nil)
	if err != nil {
		b.Fatal(err)
	}
	const workers = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// No checkpoint dir: BenchmarkPaperScale doesn't checkpoint
		// either, so the comparison isolates sharding itself. The CI
		// chaos job covers the checkpointed fault/retry path.
		s, st, err := shard.Run(context.Background(), comp.Config, shard.Options{
			Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.RunWorldV6DayContext(context.Background()); err != nil {
			b.Fatal(err)
		}
		sites, _, _, _ := s.DB.Counts()
		reportShape(b, float64(st.Shards), "shards")
		reportShape(b, float64(workers), "workers")
		b.ReportMetric(float64(st.MergeDur.Nanoseconds()), "merge-ns")
		reportShape(b, float64(st.WireBytes)/float64(sites), "wire-bytes/site")
	}
}

// BenchmarkFaultOffOverhead prices a wired but quiet fault injector —
// the cost of arming a plan in a production campaign when nothing
// fires. Each iteration runs the same small sharded campaign in twenty
// pairs, once with Options.Faults nil and once with a plan Enabled
// accepts (so the coordinator builds an injector and every worker
// draws from it) whose only fault, DupRound at 1e-9, is drawn once per
// (shard, attempt, round), a few dozen times per campaign: it cannot
// fire here. Pairs alternate which side runs first; the benchmark
// reports the median of the pairs' wall-clock ratios as
// quiet-injector-overhead, whose contract is ~1.0. It fails if the
// armed side retried or merged anything different, since a plan that
// fired would price the fault, not the wiring. One pair takes ~0.1 s,
// so a single pair's ratio swings widely; the median of alternating
// pairs holds still.
func BenchmarkFaultOffOverhead(b *testing.B) {
	b.ReportAllocs()
	cfg := core.DefaultConfig(42)
	cfg.NASes = 300
	cfg.ListSize = 2000
	cfg.Extended = 0
	cfg.Rounds = 6
	cfg.V6DayRounds = 3
	cfg.Vantages = core.ScaledVantages(cfg.Rounds)
	quiet := &fault.Config{Seed: 1, Wire: fault.WirePlan{DupRound: 1e-9}}
	if !quiet.Enabled() {
		b.Fatal("the quiet plan arms no injector")
	}
	type counts struct{ sites, dns, samples, paths int }
	run := func(fc *fault.Config) (time.Duration, [2]counts) {
		t0 := time.Now()
		s, st, err := shard.Run(context.Background(), cfg, shard.Options{Workers: 2, Faults: fc})
		if err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(t0)
		if st.Retries != 0 {
			b.Fatalf("faults %+v: %d retries, want none", fc, st.Retries)
		}
		var c [2]counts
		for k, db := range []*store.DB{s.DB, s.V6DayDB} {
			c[k].sites, c[k].dns, c[k].samples, c[k].paths = db.Counts()
		}
		return elapsed, c
	}
	const pairs = 20    // even: each side runs first equally often
	_, want := run(nil) // warm-up, so the first pair starts no colder than the rest
	if _, got := run(quiet); got != want {
		b.Fatalf("quiet plan merged %+v, unarmed %+v", got, want)
	}
	b.ResetTimer()
	var ratios []float64
	for i := 0; i < b.N; i++ {
		for p := 0; p < pairs; p++ {
			var base, wired time.Duration
			var got [2]counts
			if p%2 == 0 {
				base, _ = run(nil)
				wired, got = run(quiet)
			} else {
				wired, got = run(quiet)
				base, _ = run(nil)
			}
			if got != want {
				b.Fatalf("quiet plan merged %+v, unarmed %+v", got, want)
			}
			ratios = append(ratios, float64(wired)/float64(base))
		}
	}
	b.ReportMetric(stats.Median(ratios), "quiet-injector-overhead")
}

// --- Snapshot formats -------------------------------------------------

// diskBytes sums the on-disk size of a saved snapshot — a CSV
// directory or a single .v6db file.
func diskBytes(b *testing.B, root string) float64 {
	b.Helper()
	var total int64
	err := filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if info, err := d.Info(); err == nil && !d.IsDir() {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return float64(total)
}

// BenchmarkSnapshotSave times one full durable save of the shared
// bench database in each serialization: CSV, the export format, and
// binary, the checkpoint and product format. disk-bytes is the size
// the save leaves behind; the binary format's lead on both axes is
// why it is the only format the program reads back.
func BenchmarkSnapshotSave(b *testing.B) {
	b.ReportAllocs()
	db := benchScenario(b).DB
	b.ResetTimer()
	b.Run("csv", func(b *testing.B) {
		b.ReportAllocs()
		target := filepath.Join(b.TempDir(), "main")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.Save(target); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportShape(b, diskBytes(b, target), "disk-bytes")
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		target := filepath.Join(b.TempDir(), "main"+store.BinaryExt)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.SaveBinary(target, store.BinaryOptions{Compress: true}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportShape(b, diskBytes(b, target), "disk-bytes")
	})
}

// BenchmarkSnapshotLoad times materializing the same database back
// through store.Load, what a resume pays before its first round and
// `v6report -db` before its first table.
func BenchmarkSnapshotLoad(b *testing.B) {
	b.ReportAllocs()
	db := benchScenario(b).DB
	b.ResetTimer()
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		target := filepath.Join(b.TempDir(), "main")
		if err := db.SaveBinary(target+store.BinaryExt, store.BinaryOptions{Compress: true}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := store.Load(target); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations (design choices called out in DESIGN.md) ---------------

// ablationScenario runs a small study with the given overrides and
// returns its analysis.
func ablationScenario(b *testing.B, seed int64, mutate func(*core.Config)) *analysis.Study {
	b.Helper()
	cfg := core.DefaultConfig(seed)
	cfg.NASes = 600
	cfg.ListSize = 5000
	cfg.Extended = 0
	cfg.Rounds = 20
	cfg.Vantages = core.ScaledVantages(cfg.Rounds)
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := core.NewScenario(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.RunContext(context.Background()); err != nil {
		b.Fatal(err)
	}
	return s.Study()
}

func meanDPComparable(st *analysis.Study) float64 {
	var comp float64
	var n int
	for _, r := range st.Table11() {
		if r.NASes > 0 {
			comp += r.FracComparable + r.FracZeroMode
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return comp / float64(n)
}

func spShare(st *analysis.Study) float64 {
	var sp, dp int
	for _, r := range st.Table4() {
		sp += r.SP
		dp += r.DP
	}
	if sp+dp == 0 {
		return 0
	}
	return float64(sp) / float64(sp+dp)
}

// BenchmarkAblationPeeringParity sweeps the v6 peering-parity knob:
// the SP share of sites must grow with parity (the paper's remedy).
func BenchmarkAblationPeeringParity(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var shares [2]float64
		for k, parity := range []float64{0.5, 1.0} {
			p := parity
			st := ablationScenario(b, 7, func(c *core.Config) {
				tc := topo.DefaultGenConfig(c.NASes, c.Seed)
				tc.V6EdgeParity = p
				if p == 1.0 {
					tc.TunnelFrac = 0
				}
				c.TopoOverride = &tc
			})
			shares[k] = spShare(st)
		}
		reportShape(b, 100*shares[0], "%SP-parity0.5")
		reportShape(b, 100*shares[1], "%SP-parity1.0")
	}
}

// BenchmarkAblationTunnelPenalty toggles tunnels: with no tunnels the
// Table 7 low-hop IPv6 artefact disappears.
func BenchmarkAblationTunnelPenalty(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, tf := range []float64{0.5, 0.0} {
			frac := tf
			st := ablationScenario(b, 13, func(c *core.Config) {
				tc := topo.DefaultGenConfig(c.NASes, c.Seed)
				tc.TunnelFrac = frac
				c.TopoOverride = &tc
			})
			rows := st.Table7()
			// Low-hop (buckets 1-2) v6/v4 speed ratio across vantages.
			var v4, v6 float64
			var n4, n6 int
			for j := 0; j+1 < len(rows); j += 2 {
				for bkt := 0; bkt < 2; bkt++ {
					if rows[j].Count[bkt] > 0 {
						v4 += rows[j].Speed[bkt] * float64(rows[j].Count[bkt])
						n4 += rows[j].Count[bkt]
					}
					if rows[j+1].Count[bkt] > 0 {
						v6 += rows[j+1].Speed[bkt] * float64(rows[j+1].Count[bkt])
						n6 += rows[j+1].Count[bkt]
					}
				}
			}
			if n4 > 0 && n6 > 0 {
				name := "lowhop-v6/v4-tunnels"
				if frac == 0 {
					name = "lowhop-v6/v4-notunnels"
				}
				reportShape(b, (v6/float64(n6))/(v4/float64(n4)), name)
			}
		}
	}
}

// BenchmarkAblationV6EdgePenaltyH1 breaks H1 on purpose: degrading
// every native v6 edge must crater the SP comparable fraction.
func BenchmarkAblationV6EdgePenaltyH1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, penalty := range []float64{1.0, 0.6} {
			p := penalty
			st := ablationScenario(b, 17, func(c *core.Config) {
				nc := netsim.DefaultConfig(c.Seed)
				nc.V6EdgePenalty = p
				c.Net = &nc
			})
			var comp float64
			rows := st.Table8()
			for _, r := range rows {
				comp += r.FracComparable
			}
			name := "%SP-comparable-parity"
			if p < 1 {
				name = "%SP-comparable-broken"
			}
			reportShape(b, 100*comp/float64(len(rows)), name)
		}
	}
}

// BenchmarkAblationServerDeficiency sweeps the deficient-v6-server
// rate, which drives the zero-mode prevalence of Tables 8 and 11.
// Zero-modes are counted across both SP and DP destination ASes for
// statistical weight at bench scale.
func BenchmarkAblationServerDeficiency(b *testing.B) {
	b.ReportAllocs()
	// On a shared path (SP) only servers can explain an AS-level
	// deficit, so every non-comparable SP AS is server-attributable:
	// zero-mode when a matching site proves it, "small #" when the
	// AS is too small to show one.
	serverDegraded := func(st *analysis.Study) float64 {
		var deg, n float64
		for _, r := range st.Table8() {
			deg += (1 - r.FracComparable) * float64(r.NASes)
			n += float64(r.NASes)
		}
		if n == 0 {
			return 0
		}
		return deg / n
	}
	for i := 0; i < b.N; i++ {
		for _, badMix := range []float64{0.0, 0.5} {
			bm := badMix
			st := ablationScenario(b, 19, func(c *core.Config) {
				c.NASes = 1000
				c.ListSize = 10000
				c.Rounds = 30
				wc := websim.DefaultConfig(c.Seed)
				wc.BadMixASFrac = bm
				wc.BadFracInBad = 0.8
				if bm == 0 {
					wc.BadFracInGood = 0
				}
				c.Web = &wc
			})
			name := "%SP-server-degraded-clean"
			if bm > 0 {
				name = "%SP-server-degraded-badmix"
			}
			reportShape(b, 100*serverDegraded(st), name)
		}
	}
}

// BenchmarkAblationCIStopRule measures the cost/accuracy trade-off of
// the 10% CI stop rule against a fixed-count rule. Every iteration
// grades the same seeded population of sites, so the shapes do not
// depend on b.N.
func BenchmarkAblationCIStopRule(b *testing.B) {
	b.ReportAllocs()
	const sites = 1000
	rule := stats.CIStop{Frac: 0.10, MinN: 3}
	var downloads, converged int
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(3))
		downloads, converged = 0, 0
		for site := 0; site < sites; site++ {
			var w stats.Welford
			for d := 0; d < 30; d++ {
				w.Add(50 * (1 + 0.04*rng.NormFloat64()))
				if rule.Done(&w) {
					break
				}
			}
			downloads += w.N()
			if rule.Done(&w) {
				converged++
			}
		}
	}
	reportShape(b, float64(downloads)/sites, "downloads/site")
	reportShape(b, 100*float64(converged)/sites, "%converged")
}

// BenchmarkAblationBGPPreference contrasts policy routing with plain
// shortest-path: policy paths are at least as long, shifting the
// hop-count mix the performance model feeds on.
func BenchmarkAblationBGPPreference(b *testing.B) {
	b.ReportAllocs()
	g := mustGraph(b)
	c := bgp.NewComputer(g)
	var longer, pairs, extra float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Aggregate over a fixed destination sample so one iteration
		// already carries signal and every iteration grades the same
		// pairs.
		longer, pairs, extra = 0, 0, 0
		for k := 0; k < 20; k++ {
			dst := k * 61 % g.N()
			polLen := make(map[int]int)
			c.Routes(dst, topo.V4)
			for src := 0; src < g.N(); src += 7 {
				if p := c.PathFrom(src); p != nil {
					polLen[src] = len(p) - 1
				}
			}
			c.RoutesShortest(dst, topo.V4)
			for src, pl := range polLen {
				p := c.PathFrom(src)
				if p == nil {
					continue
				}
				pairs++
				if d := pl - (len(p) - 1); d > 0 {
					longer++
					extra += float64(d)
				}
			}
		}
	}
	if pairs > 0 {
		reportShape(b, 100*longer/pairs, "%policy-longer")
		reportShape(b, extra/pairs, "extra-hops/pair")
	}
}

// BenchmarkMonitorScaling addresses Section 6's worry about "the
// ability of the monitoring tool and its underlying database to
// handle growth in IPv6 accessible sites": one full monitoring round
// at increasing list sizes, then the full six-vantage roster with the
// round's units of work executed serially vs on the round worker
// pool. Comparing the 6vp-serial and 6vp-parallel timings on a
// multi-core host gives the campaign's wall-clock speedup; their
// shape metrics (sample/DNS row counts) must match exactly, and the
// golden pins both to the same values — the parallel path is
// byte-identical, which TestParallelSerial-
// CampaignsByteIdentical enforces on the CSVs.
func BenchmarkMonitorScaling(b *testing.B) {
	b.ReportAllocs()
	for _, size := range []int{2000, 8000, 32000} {
		size := size
		b.Run(byteSizeName(size), func(b *testing.B) {
			b.ReportAllocs()
			cfg := core.DefaultConfig(3)
			cfg.NASes = 800
			cfg.ListSize = size
			cfg.Extended = 0
			cfg.Rounds = 2
			scaled := core.DefaultVantages()[:1] // Comcast only
			scaled[0].StartRound = 0
			cfg.Vantages = scaled
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh scenario per iteration: construction plus
				// both rounds.
				s, err := core.NewScenario(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.RunContext(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, mode := range []struct {
		name    string
		workers int
	}{{"6vp-serial", 1}, {"6vp-parallel", 0}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			if mode.workers == 0 && runtime.NumCPU() < 2 {
				// The worker pool can only lose on one CPU; a "parallel"
				// number measured there would misread as a regression.
				b.Skip("6vp-parallel needs >=2 CPUs; serial timing is the honest number here")
			}
			b.ReportAllocs()
			cfg := core.DefaultConfig(11)
			cfg.NASes = 800
			cfg.ListSize = 6000
			cfg.Extended = 1500
			cfg.Rounds = 8
			cfg.Vantages = core.ScaledVantages(cfg.Rounds)
			cfg.RoundWorkers = mode.workers
			var samples, dnsRows int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := core.NewScenario(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.RunContext(context.Background()); err != nil {
					b.Fatal(err)
				}
				_, dnsRows, samples, _ = s.DB.Counts()
			}
			reportShape(b, float64(samples), "sample-rows")
			reportShape(b, float64(dnsRows), "dns-rows")
		})
	}
}

func byteSizeName(n int) string {
	switch {
	case n >= 1000:
		return itoa(n/1000) + "k-sites"
	default:
		return itoa(n) + "-sites"
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkExtensionVantageCoverage measures the coverage-growth
// extension: marginal IPv6 AS coverage per added vantage.
func BenchmarkExtensionVantageCoverage(b *testing.B) {
	b.ReportAllocs()
	s := benchScenario(b)
	b.ResetTimer()
	var growth []int
	for i := 0; i < b.N; i++ {
		growth = s.CoverageGrowth()
	}
	if len(growth) > 0 {
		reportShape(b, float64(growth[0]), "ases-1-vantage")
		reportShape(b, float64(growth[len(growth)-1]), "ases-all-vantages")
	}
}

// BenchmarkExtensionTunnelReport measures the tunnel-prevalence
// extension and reports the deficit contrast.
func BenchmarkExtensionTunnelReport(b *testing.B) {
	b.ReportAllocs()
	s := benchScenario(b)
	b.ResetTimer()
	var rows []core.TunnelStats
	for i := 0; i < b.N; i++ {
		rows = s.TunnelReport()
	}
	var tun, nat float64
	var n int
	for _, r := range rows {
		if r.SitesTunneled >= 3 && r.SitesNative >= 3 {
			tun += r.V6DeficitTunneled()
			nat += r.V6DeficitNative()
			n++
		}
	}
	if n > 0 {
		reportShape(b, 100*tun/float64(n), "%v6deficit-tunneled")
		reportShape(b, 100*nat/float64(n), "%v6deficit-native")
	}
}

// --- helpers ---------------------------------------------------------

var (
	benchGraphOnce sync.Once
	benchGraph     *topo.Graph
	benchGraphErr  error
)

func mustGraph(b *testing.B) *topo.Graph {
	b.Helper()
	benchGraphOnce.Do(func() {
		benchGraph, benchGraphErr = topo.Generate(topo.DefaultGenConfig(1200, 5))
	})
	if benchGraphErr != nil {
		b.Fatal(benchGraphErr)
	}
	return benchGraph
}

// BenchmarkAdoptionModel exercises the Fig 1 primitive directly.
func BenchmarkAdoptionModel(b *testing.B) {
	b.ReportAllocs()
	ad := alexa.NewAdoption(1, alexa.DefaultTimeline())
	tl := ad.Timeline
	hits := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ad.IsV6At(alexa.SiteID(i), 1+i%1000000, tl.End) {
			hits++
		}
	}
	_ = hits
}

// BenchmarkDaemonWarmExhibit measures v6mond's hot serving path: a
// completed campaign's pre-rendered report fetched over real HTTP.
// Warm exhibits are immutable bytes behind an atomic pointer, so this
// is the sustained-load figure for the daemon (req/s, bytes/op) —
// the render limiter is never touched.
func BenchmarkDaemonWarmExhibit(b *testing.B) {
	b.ReportAllocs()
	d := daemon.New(daemon.Options{Dir: b.TempDir(), Addr: "127.0.0.1:0"})
	if _, err := d.Add("bench", "baseline-2011",
		scenario.Overrides{"topo.ases=150", "list.size=1000", "schedule.rounds=5"}); err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}()
	deadline := time.Now().Add(2 * time.Minute)
	for d.Addr() == "" || d.Campaigns()[0].State() != daemon.StateComplete {
		if time.Now().After(deadline) {
			b.Fatal("bench campaign never completed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	url := "http://" + d.Addr() + "/api/campaigns/bench/report"
	client := &http.Client{}
	var served int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("GET report: %d %v", resp.StatusCode, err)
		}
		served += n
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "req/s")
	}
	reportShape(b, float64(served)/float64(b.N), "bytes/op")
}
