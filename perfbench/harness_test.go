package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"v6web/internal/shard"
)

// TestMain lets the sharded workload re-exec the test binary as shard
// workers.
func TestMain(m *testing.M) {
	shard.MaybeWorker()
	os.Exit(m.Run())
}

// runTiny runs one workload at the tiny size and returns its result
// line and the rest of its output.
func runTiny(t *testing.T, state string, args ...string) (result, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append([]string{"--tiny", "--seconds", "1", "--state", state}, args...)
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("run %v: exit %d\n%s%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return res, out.String()
}

// Every workload runs end to end at a tiny size, passes its output
// checks with no failed operation, and reports every end-to-end metric.
func TestWorkloadsTiny(t *testing.T) {
	state := t.TempDir()
	for _, w := range []string{"campaign", "sharded", "v6day", "serve"} {
		res, out := runTiny(t, state, "--workload", w)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d\n%s", w, res.Correct, res.Failed, res.Attempted, out)
		}
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, want the %d end-to-end ones", w, len(res.Metrics), len(endToEnd))
		}
		for _, d := range endToEnd {
			if m := res.Metrics[d.Name]; m.Value <= 0 || m.Unit != d.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w, d.Name, m, d.Unit)
			}
		}
	}
}

// Every workload's traced run measures every per-layer metric except
// the ones unmeasured names for it (a metric missing from both fails
// the run), and writes its spans once.
func TestTracedRunsReportEveryLayerMetric(t *testing.T) {
	state := t.TempDir()
	measured := map[string][]string{
		"campaign": {"core.rounds_s", "core.pool_util", "measure.busy_s", "store.checkpoint_count", "store.checkpoint_mb"},
		"sharded":  {"shard.attempts", "shard.merge_s", "measure.visits", "measure.dual", "store.checkpoint_count", "store.checkpoint_mb"},
		"v6day":    {"core.fastforward_s", "measure.v6day_busy_s", "measure.downloads"},
		"serve":    {"daemon.round_p50_ms", "http.sent", "store.load_s", "store.checkpoint_count", "store.checkpoint_mb", "store.bytes_per_site"},
	}
	for w, names := range measured {
		res, out := runTiny(t, state, "--workload", w, "--trace", "1")
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s: correct=%v failed=%d\n%s", w, res.Correct, res.Failed, out)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want the %d per-layer ones", w, len(res.Metrics), len(perLayer))
		}
		for _, name := range append(names, "wall.campaign_s", "wall.report_s", "trace.overhead_s") {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w, name, res.Metrics[name].Value)
			}
		}
		for _, g := range unmeasured[w] {
			for _, name := range names {
				if g.covers(name) {
					t.Errorf("%s: %s is listed as unmeasured", w, name)
				}
			}
		}
	}
	if traces, _ := filepath.Glob(filepath.Join(state, "traces", "*.json")); len(traces) != len(measured) {
		t.Errorf("%d traced runs wrote %d span files", len(measured), len(traces))
	}
}

// A run whose outputs differ from what an earlier run recorded for the
// same input is reported as incorrect.
func TestChangedOutputFailsTheCheck(t *testing.T) {
	state := t.TempDir()
	if res, out := runTiny(t, state, "--workload", "v6day"); !res.Correct {
		t.Fatalf("first run incorrect\n%s", out)
	}
	path := filepath.Join(state, "facts.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var seen map[string]facts
	if err := json.Unmarshal(data, &seen); err != nil {
		t.Fatal(err)
	}
	for _, f := range seen {
		f["v6day.visits"] = "1"
	}
	data, _ = json.Marshal(seen)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, out := runTiny(t, state, "--workload", "v6day")
	if res.Correct || !strings.Contains(out, "CHECK FAILED") {
		t.Errorf("run with a changed visit count passed its check\n%s", out)
	}
	// The failed run did not overwrite the record with its own facts.
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, data) {
		t.Errorf("a failed run rewrote the facts record (%v)", err)
	}
}

// BENCHMARK.json lists exactly the workloads and metrics this program
// reports, with the same units and directions.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the program", w.Name)
		}
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.name, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.name, i, m, d)
			}
		}
	}
}
