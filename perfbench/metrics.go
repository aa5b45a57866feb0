package main

import "strings"

// metricDef is one metric the benchmark reports, as BENCHMARK.json
// lists it (TestBenchmarkJSONMatchesMetrics keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the untraced run's metrics, reported on every workload.
// Each is never 0; the sub-second ones are medians of repeated passes.
// Times are CPU seconds of this process and its shard workers: on a
// shared host, wall time also counts what the hypervisor gives to other
// guests, which spread the same run by 10-30% (wall.* keeps them).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},        // config to a runnable campaign, median of passes
	{"campaign_cpu_s", "s", "lower"}, // first round to the complete result
	{"report_cpu_s", "s", "lower"},   // one `v6report -db` pass, median of passes
	{"peak_rss_mb", "MB", "lower"},   // peak RSS of the process holding the campaign
}

// perLayer are the traced run's metrics. A metric a workload cannot
// measure is reported as 0 only when unmeasured names it.
var perLayer = []metricDef{
	{"wall.setup_s", "s", "lower"},
	{"wall.campaign_s", "s", "lower"},
	{"wall.report_s", "s", "lower"},

	{"core.rounds_s", "s", "lower"},
	{"core.pool_util", "ratio", "higher"},
	{"core.fastforward_s", "s", "lower"},

	{"measure.visits", "count", "higher"},
	{"measure.dual", "count", "higher"},
	{"measure.measured", "count", "higher"},
	{"measure.busy_s", "s", "lower"},
	{"measure.ns_per_visit", "ns", "lower"},
	{"measure.v6day_busy_s", "s", "lower"},
	{"measure.downloads", "count", "lower"},
	{"measure.downloads_per_sample", "count", "lower"},
	{"measure.ci_ok_frac", "ratio", "higher"},

	{"store.checkpoint_s", "s", "lower"},
	{"store.checkpoint_count", "count", "lower"},
	{"store.checkpoint_mb", "MB", "lower"},
	{"store.live_heap_mb", "MB", "lower"},
	{"store.bytes_per_site", "B", "lower"},
	{"store.dns_rows_per_run", "ratio", "higher"},
	{"store.load_s", "s", "lower"},
	{"store.freeze_s", "s", "lower"},
	{"analysis.study_s", "s", "lower"},
	{"report.render_s", "s", "lower"},
	{"report.bytes", "B", "lower"},

	{"shard.merge_s", "s", "lower"},
	{"shard.merge_share", "ratio", "lower"},
	{"shard.wire_bytes_per_site", "B", "lower"},
	{"shard.attempts", "count", "lower"},
	{"shard.retries", "count", "lower"},
	{"shard.worker_peak_rss_mb", "MB", "lower"},

	{"daemon.freshness_ms", "ms", "lower"},
	{"daemon.publish_p90_ms", "ms", "lower"},
	{"daemon.round_p50_ms", "ms", "lower"},
	{"daemon.tail_s", "s", "lower"},
	{"daemon.restarts", "count", "lower"},
	{"daemon.sheds", "count", "lower"},
	{"daemon.sse_dropped", "count", "lower"},

	{"http.req_p50_ms", "ms", "lower"},
	{"http.req_p99_ms", "ms", "lower"},
	{"http.req_samples", "count", "higher"},
	{"http.report_p50_ms", "ms", "lower"},
	{"http.table8_p50_ms", "ms", "lower"},
	{"http.fig1_p50_ms", "ms", "lower"},
	{"http.status_p50_ms", "ms", "lower"},
	{"http.bytes_per_resp", "B", "lower"},
	{"http.sent", "count", "higher"},
	{"http.failed", "count", "lower"},
	{"http.late_p99_ms", "ms", "lower"},
	{"http.late_max_ms", "ms", "lower"},

	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},

	{"trace.overhead_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// gap is a set of per-layer metrics a workload cannot measure, and why.
// A name ending in "." covers every metric of that layer.
type gap struct {
	reason  string
	metrics []string
}

func (g gap) covers(name string) bool {
	for _, m := range g.metrics {
		if m == name || (strings.HasSuffix(m, ".") && strings.HasPrefix(name, m)) {
			return true
		}
	}
	return false
}

// unmeasured lists, per workload, the per-layer metrics its traced run
// reports as 0. Any other metric a traced run leaves unmeasured fails
// the run.
var unmeasured = map[string][]gap{
	"campaign": {{"not run by this workload", []string{"core.fastforward_s", "store.load_s", "shard.", "daemon.", "http."}}},
	"sharded": {
		{"not run by this workload", []string{"core.fastforward_s", "store.load_s", "daemon.", "http."}},
		{"the main rounds run in the worker processes, and only their counts reach the coordinator",
			[]string{"core.rounds_s", "core.pool_util", "measure.busy_s", "measure.ns_per_visit"}},
	},
	"v6day": {{"not run by this workload: set-up fast-forwards the main rounds, and nothing is checkpointed or loaded",
		[]string{"core.rounds_s", "core.pool_util", "measure.busy_s", "measure.ns_per_visit",
			"store.checkpoint_s", "store.checkpoint_count", "store.checkpoint_mb", "store.load_s",
			"shard.", "daemon.", "http."}}},
	"serve": {{"not run by this workload", []string{"core.fastforward_s", "shard."}}},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric
