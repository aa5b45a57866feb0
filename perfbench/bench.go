package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"v6web/internal/analysis"
	"v6web/internal/core"
	"v6web/internal/report"
	"v6web/internal/scenario"
	"v6web/internal/store"
)

const (
	// minPasses is how often the sub-second phases (set-up, report)
	// repeat at least within one run; their end-to-end metrics are the
	// medians, never a one-shot timing.
	minPasses = 9
	// maxPasses caps the passes that fill a time window.
	maxPasses = 200
	// setupWindow is how long set-up passes repeat past minPasses.
	setupWindow = 3 * time.Second
	// checkpointEvery is v6mon's default checkpoint cadence.
	checkpointEvery = 5
	mib             = 1 << 20
)

// bench is one pass of one workload: what it measured, counted and
// found wrong.
type bench struct {
	opt   options
	log   io.Writer
	tr    *tracer
	host  host
	data  string // this pass's data directory, removed at the end
	heap0 uint64 // live heap before the workload

	e2e, layer        metrics
	attempted, failed int64
	problems          []string
}

func newBench(opt options, log io.Writer) (*bench, error) {
	data, err := filepath.Abs(filepath.Join(opt.state, fmt.Sprintf("data-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(data); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	start := time.Now()
	run := fmt.Sprintf("%s-seed%d-%s-%d", opt.workload, opt.seed, start.UTC().Format("20060102T150405"), os.Getpid())
	return &bench{
		opt:   opt,
		log:   log,
		tr:    newTracer(opt.trace == 1, run, start),
		host:  hostInfo(data),
		data:  data,
		heap0: ms.HeapAlloc,
		e2e:   metrics{},
		layer: metrics{},
	}, nil
}

func (b *bench) setE2E(name string, v float64)   { b.e2e[name] = metric{Value: v} }
func (b *bench) setLayer(name string, v float64) { b.layer[name] = metric{Value: v} }

// op counts one operation against the program and passes err through.
func (b *bench) op(err error) error {
	b.attempted++
	if err != nil {
		b.failed++
	}
	return err
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.log, format+"\n", args...)
}

// tinySets shrink each pack so the whole harness runs in seconds.
var tinySets = map[string][]string{
	"paper-scale-mini": {"topo.ases=200", "list.size=3000", "list.extended=2000", "schedule.rounds=6", "schedule.v6day_rounds=3"},
	"paper-scale":      {"topo.ases=200", "list.size=4000", "schedule.rounds=6"},
	"baseline-2011":    {"topo.ases=150", "list.size=1500", "list.extended=300", "schedule.rounds=4", "schedule.v6day_rounds=3"},
}

// overrides returns the pack overrides for this run: the workload's
// own, the --seed replacement, and the tiny sizes when asked.
func (b *bench) overrides(pack string, sets ...string) scenario.Overrides {
	o := scenario.Overrides(sets)
	if b.opt.seed >= 0 {
		o = append(o, "seed="+strconv.FormatInt(b.opt.seed, 10))
	}
	if b.opt.tiny {
		o = append(o, tinySets[pack]...)
	}
	return o
}

func (b *bench) config(pack string, sets ...string) (core.Config, error) {
	comp, err := scenario.LoadCompiled(pack, b.overrides(pack, sets...))
	if err != nil {
		return core.Config{}, err
	}
	b.logf("input: pack=%s seed=%d ases=%d list=%d extended=%d rounds=%d v6day_rounds=%d",
		pack, comp.Config.Seed, comp.Config.NASes, comp.Config.ListSize, comp.Config.Extended, comp.Config.Rounds, comp.Config.V6DayRounds)
	return comp.Config, nil
}

// stamp is an instant on the two clocks phases are timed with: the
// wall clock, and the CPU time this process and its waited-for
// children (the shard workers) have used.
type stamp struct {
	wall time.Time
	cpu  float64
}

func now() stamp {
	return stamp{time.Now(), cpuSeconds(syscall.RUSAGE_SELF) + cpuSeconds(syscall.RUSAGE_CHILDREN)}
}

// since returns the wall and CPU seconds from s to now.
func (s stamp) since() (wall, cpu float64) {
	e := now()
	return e.wall.Sub(s.wall).Seconds(), e.cpu - s.cpu
}

// repeat times fn as spans named name, each pass after prep (when
// set; untimed) and a forced GC, at least minPasses times and then
// until window has gone by, and returns each pass's wall and CPU
// seconds. The tiny size runs two.
func (b *bench) repeat(name string, window time.Duration, prep func(pass int), fn func(pass, parent int) error) (wall, cpu []float64, err error) {
	n := minPasses
	if b.opt.tiny {
		n, window = 2, 0
	}
	start := time.Now()
	for i := 0; i < maxPasses && (i < n || time.Since(start) < window); i++ {
		if prep != nil {
			prep(i)
		}
		runtime.GC()
		t := now()
		_, err := b.tr.time(name, 0, func(id int) error { return fn(i, id) })
		w, c := t.since()
		if err != nil {
			return wall, cpu, err
		}
		wall, cpu = append(wall, w), append(cpu, c)
	}
	q1, q3 := quartiles(cpu)
	b.logf("%s passes: %d, CPU median %.4fs, quartiles %.4f..%.4fs; wall median %.4fs", name, len(cpu), median(cpu), q1, q3, median(wall))
	return wall, cpu, nil
}

// setupPasses times repeated set-up passes and reports the median CPU
// time of one as setup_s. Each pass starts from a collected heap, with
// the previous pass's result already released (by release, when it
// holds more than memory); the last pass's result is returned for the
// workload to run on.
func setupPasses[T any](b *bench, build func(parent int) (T, error), release func(T)) (T, error) {
	var last, zero T
	prep := func(i int) {
		if i > 0 && release != nil {
			release(last)
		}
		last = zero
	}
	wall, cpu, err := b.repeat("setup", setupWindow, prep, func(_, id int) (err error) {
		last, err = build(id)
		return b.op(err)
	})
	if err != nil {
		return last, err
	}
	b.setE2E("setup_s", median(cpu))
	b.setLayer("wall.setup_s", median(wall))
	return last, nil
}

// newScenario is the batch workloads' set-up: core.NewScenario as a
// span under parent.
func (b *bench) newScenario(cfg core.Config, parent int) (s *core.Scenario, err error) {
	_, err = b.tr.time("NewScenario", parent, func(int) (err error) {
		s, err = core.NewScenario(cfg)
		return err
	})
	return s, err
}

// timedPhase times a workload's campaign phase as the span "campaign"
// and reports its CPU time as campaign_cpu_s. The phase starts right
// after a forced GC: otherwise whether a collection of a ~1 GB live
// heap lands inside a few-second phase depends on the set-up passes
// before it.
func (b *bench) timedPhase(fn func(parent int) error) error {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t := now()
	_, err := b.tr.time("campaign", 0, fn)
	wall, cpu := t.since()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	b.setE2E("campaign_cpu_s", cpu)
	b.setLayer("wall.campaign_s", wall)
	b.logf("campaign phase: %.3fs CPU, %.3fs wall, %d GC cycles, %.0f MB allocated",
		cpu, wall, after.NumGC-before.NumGC, float64(after.TotalAlloc-before.TotalAlloc)/mib)
	return nil
}

// v6DayStep runs World IPv6 Day on s as a span under parent, tallying
// its round events into v6.
func (b *bench) v6DayStep(ctx context.Context, s *core.Scenario, v6 *roundTally, parent int) error {
	_, err := b.tr.time("RunWorldV6Day", parent, func(int) error {
		return s.RunWorldV6DayContext(ctx, core.WithObserver(v6.observe))
	})
	return b.op(err)
}

// reportPasses times repeated report passes, each after a forced GC,
// and reports the median CPU time of one as report_cpu_s. Passes
// continue past the minimum until they have run for --seconds. Every
// pass must render the same bytes, which it returns.
func (b *bench) reportPasses(fn func(parent int) []byte) []byte {
	var first []byte
	wall, cpu, _ := b.repeat("report", time.Duration(b.opt.seconds)*time.Second, nil, func(i, id int) error {
		out := fn(id)
		b.attempted++
		if first == nil {
			first = out
		} else if !bytes.Equal(out, first) {
			b.problem("report pass %d rendered different bytes than pass 1", i+1)
		}
		return nil
	})
	b.setE2E("report_cpu_s", median(cpu))
	b.setLayer("wall.report_s", median(wall))
	return first
}

// studyReport is the `v6report -db` pass over in-memory databases:
// freeze both, analyze both, render tables 2-13.
func (b *bench) studyReport(parent int, main, v6day *store.DB) []byte {
	var sm, sv *store.Snapshot
	b.tr.do("Freeze", parent, func() { sm, sv = main.Freeze(), v6day.Freeze() })
	var st, st6 *analysis.Study
	b.tr.do("StudyOfSnapshot", parent, func() {
		st = report.StudyOfSnapshot(sm, analysis.DefaultThresholds())
		st6 = report.StudyOfSnapshot(sv, report.V6DayThresholds())
	})
	var buf bytes.Buffer
	b.tr.do("RenderStudy", parent, func() { report.RenderStudy(&buf, st, st6) })
	return buf.Bytes()
}

// roundTally sums the round events of one kind of round.
type roundTally struct {
	visits, dual, measured, fetchFails int64
	busy                               time.Duration
}

func (t *roundTally) observe(ev core.RoundEvent) {
	if ev.Outage {
		return
	}
	t.visits += int64(ev.Stats.Sites)
	t.dual += int64(ev.Stats.Dual)
	t.measured += int64(ev.Stats.Measured)
	t.fetchFails += int64(ev.Stats.FetchFails)
	t.busy += ev.Elapsed
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var n int64
	filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
