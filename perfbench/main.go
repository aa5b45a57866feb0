// Command perfbench is the repository's end-to-end benchmark: one
// program that runs a workload at a seed through the public APIs of
// internal/core, internal/shard, internal/store, internal/report and
// internal/daemon (the daemon over loopback HTTP), checks the run's
// outputs, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, from an
// untraced run. With --trace 1 the program records spans around every
// call into the program and reports the per-layer metrics, among them
// the time the recording itself took.
//
// Usage (from the repository root, through the launcher that builds
// it):
//
//	bash perfbench/run.sh --workload campaign --seed 42 --seconds 8 --trace 0
//
// See README.md in this directory for the workloads, the metric
// definitions, and which layer metric should move which end-to-end
// metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"v6web/internal/shard"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench, context.Context) error{
	"campaign": (*bench).runCampaign,
	"sharded":  (*bench).runSharded,
	"v6day":    (*bench).runV6Day,
	"serve":    (*bench).runServe,
}

// runLimit bounds one invocation: the benchmark must finish (or fail)
// within 180 seconds, so a wedged run is abandoned before that.
const runLimit = 170 * time.Second

type options struct {
	workload string
	seed     int64 // <0: the pack's own seed
	seconds  int
	trace    int
	tiny     bool
	state    string
}

func main() {
	// Shard workers are re-execs of this binary; divert them before
	// anything else runs.
	shard.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: campaign, sharded, v6day or serve")
	fs.Int64Var(&o.seed, "seed", -1, "scenario seed (replaces the pack's seed; <0 keeps it)")
	fs.IntVar(&o.seconds, "seconds", 8, "how long the repeated report passes run (at least 9 passes)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	fs.BoolVar(&o.tiny, "tiny", false, "shrink every workload to a few seconds (for the benchmark's own tests)")
	fs.StringVar(&o.state, "state", filepath.Join(".bench_build", "perfbench"), "directory for data, traces and the output-check record")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want campaign, sharded, v6day or serve)", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds < 1 || o.seconds > 60 {
		return o, fmt.Errorf("--seconds must be within 1..60")
	}
	return o, nil
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()

	res, err := measure(ctx, opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure runs the workload in this process.
func measure(ctx context.Context, opt options, stdout io.Writer) (result, error) {
	b, err := newBench(opt, stdout)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(b.data)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d trace=%d tiny=%v run=%s\n", opt.workload, opt.seed, opt.trace, opt.tiny, b.tr.run)
	fmt.Fprintf(stdout, "host: %s\n", b.host)
	steal := stealSeconds()
	if err := workloads[opt.workload](b, ctx); err != nil {
		return result{}, fmt.Errorf("%s: %w", opt.workload, err)
	}
	fmt.Fprintf(stdout, "host: %.2f s of CPU time stolen by the hypervisor during the run\n", stealSeconds()-steal)
	b.setE2E("peak_rss_mb", peakRSSMB(syscall.RUSAGE_SELF))
	if opt.trace == 1 {
		b.traceMetrics()
		if err := b.tr.write(filepath.Join(opt.state, "traces"), b.host); err != nil {
			return result{}, err
		}
	}
	return b.finish()
}

// finish checks that every metric of the run's kind — end-to-end
// untraced, per-layer traced — was measured and prints them, one per
// line, with units.
func (b *bench) finish() (result, error) {
	res := result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed}
	for _, p := range b.problems {
		fmt.Fprintf(b.log, "CHECK FAILED: %s\n", p)
	}
	defs, got, title := endToEnd, b.e2e, "end-to-end"
	if b.opt.trace == 1 {
		defs, got, title = perLayer, b.layer, "per-layer"
	}
	ms, err := collect(defs, got)
	if err != nil {
		return res, err
	}
	printMetrics(b.log, title, defs, ms)
	res.Metrics = ms
	return res, nil
}

// collect keeps the declared metrics, failing on any one not measured.
func collect(defs []metricDef, got metrics) (metrics, error) {
	out := make(metrics, len(defs))
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		m.Unit = d.Unit
		out[d.Name] = m
	}
	return out, nil
}

func printMetrics(w io.Writer, title string, defs []metricDef, ms metrics) {
	for _, d := range defs {
		m := ms[d.Name]
		fmt.Fprintf(w, "%-11s %-30s %16s %s\n", title, d.Name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
}
