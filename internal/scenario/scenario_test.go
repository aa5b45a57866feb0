package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"v6web/internal/core"
)

func TestEmptySpecCompilesToDefaultConfig(t *testing.T) {
	sp := &Spec{Version: 1}
	comp, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want := core.DefaultConfig(42)
	if !reflect.DeepEqual(comp.Config, want) {
		t.Errorf("empty spec compiled to %+v, want DefaultConfig(42)", comp.Config)
	}
	if comp.Exhibits != nil {
		t.Errorf("default exhibits = %v, want nil (all)", comp.Exhibits)
	}
}

func TestParseRejectsUnknownFieldsAndBadVersion(t *testing.T) {
	if _, err := Parse([]byte(`{"version": 1, "topo": {"asez": 100}}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Parse([]byte(`{"topo": {"ases": 100}}`)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("missing version accepted (err=%v)", err)
	}
	if _, err := Parse([]byte(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
	// client.happy_eyeballs is not a pack field: a pack naming it fails
	// like any typo.
	if _, err := Parse([]byte(`{"version":1,"client":{"happy_eyeballs":"off"}}`)); err == nil || !strings.Contains(err.Error(), "happy_eyeballs") {
		t.Errorf("unknown field client.happy_eyeballs accepted (err=%v)", err)
	}
}

func TestValidateEnums(t *testing.T) {
	sp := &Spec{Version: 1, Report: ReportSpec{Exhibits: []string{"table99"}}}
	if err := sp.Validate(); err == nil {
		t.Error("unknown exhibit accepted")
	}
	sp = &Spec{Version: 1, Report: ReportSpec{Exhibits: []string{"all", "table2", "fig1"}}}
	if err := sp.Validate(); err != nil {
		t.Errorf("valid exhibits rejected: %v", err)
	}
}

func TestSetDottedPaths(t *testing.T) {
	sp := &Spec{Version: 1}
	// JSON tag, Go field name (the ISSUE's "topo.nases" spelling), and
	// snake-case tags must all resolve.
	for _, kv := range []string{
		"topo.ases=2000",
		"topo.nases=2000",
		"topo.v6_edge_parity=0.85",
		"seed=7",
		"list.extended=0",
		"schedule.rounds=12",
		"client.max_downloads=9",
		"report.exhibits=table2, table8",
	} {
		if err := sp.SetKV(kv); err != nil {
			t.Fatalf("SetKV(%q): %v", kv, err)
		}
	}
	if sp.Topo.NASes == nil || *sp.Topo.NASes != 2000 {
		t.Errorf("topo.ases = %v, want 2000", sp.Topo.NASes)
	}
	if sp.Topo.V6EdgeParity == nil || *sp.Topo.V6EdgeParity != 0.85 {
		t.Errorf("topo.v6_edge_parity = %v, want 0.85", sp.Topo.V6EdgeParity)
	}
	if sp.Seed == nil || *sp.Seed != 7 {
		t.Errorf("seed = %v, want 7", sp.Seed)
	}
	if got := sp.Report.Exhibits; !reflect.DeepEqual(got, []string{"table2", "table8"}) {
		t.Errorf("report.exhibits = %v", got)
	}
	comp, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if comp.Config.NASes != 2000 || comp.Config.Seed != 7 || comp.Config.Rounds != 12 {
		t.Errorf("compiled %+v", comp.Config)
	}
	if comp.Config.TopoOverride == nil || comp.Config.TopoOverride.V6EdgeParity != 0.85 {
		t.Errorf("TopoOverride = %+v", comp.Config.TopoOverride)
	}
	if comp.Config.Measure == nil || comp.Config.Measure.MaxDownloads != 9 {
		t.Errorf("Measure = %+v", comp.Config.Measure)
	}
}

func TestSetErrors(t *testing.T) {
	sp := &Spec{Version: 1}
	for _, kv := range []string{
		"topo.asez=100",                // unknown field
		"nope.ases=100",                // unknown section
		"topo.ases=ten",                // unparsable value
		"topo=100",                     // section, not a field
		"topo.ases.x=1",                // descends past a leaf
		"justapathnovalue",             // no '='
		"client.happy_eyeballs=racing", // not a pack field
	} {
		if err := sp.SetKV(kv); err == nil {
			t.Errorf("SetKV(%q) accepted", kv)
		}
	}
}

func TestLoadByPathAndBadName(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "my-world.json")
	body := `{"version": 1, "name": "my-world", "seed": 5, "topo": {"ases": 200}}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "my-world" || sp.Topo.NASes == nil || *sp.Topo.NASes != 200 {
		t.Errorf("loaded %+v", sp)
	}
	_, err = Load("no-such-pack")
	if err == nil || !strings.Contains(err.Error(), "baseline-2011") {
		t.Errorf("unknown pack error should list built-ins, got %v", err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	sp, err := Load("peering-parity")
	if err != nil {
		t.Fatal(err)
	}
	cl := sp.Clone()
	if err := cl.SetKV("topo.v6_edge_parity=0.4"); err != nil {
		t.Fatal(err)
	}
	if *sp.Topo.V6EdgeParity != 1.0 {
		t.Errorf("mutating the clone changed the original: %v", *sp.Topo.V6EdgeParity)
	}
}

func TestOverridesFlagValue(t *testing.T) {
	var o Overrides
	if err := o.Set("topo.ases=500"); err != nil {
		t.Fatal(err)
	}
	if err := o.Set("list.size=1000"); err != nil {
		t.Fatal(err)
	}
	sp := &Spec{Version: 1}
	if err := o.Apply(sp); err != nil {
		t.Fatal(err)
	}
	if *sp.Topo.NASes != 500 || *sp.List.Size != 1000 {
		t.Errorf("applied %+v", sp)
	}
	sp2 := &Spec{Version: 1}
	bad := Overrides{"topo.ases=abc"}
	if err := bad.Apply(sp2); err == nil {
		t.Error("bad override accepted")
	}
}

func TestDescribeListsEveryPack(t *testing.T) {
	var buf bytes.Buffer
	if err := Describe(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range Names() {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("Describe output missing %q", name)
		}
	}
}

func TestRenderSelectedExhibits(t *testing.T) {
	sp := &Spec{Version: 1}
	for _, kv := range []string{"topo.ases=200", "list.size=1200", "list.extended=0", "schedule.rounds=6", "schedule.v6day_rounds=3"} {
		if err := sp.SetKV(kv); err != nil {
			t.Fatal(err)
		}
	}
	comp, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewScenario(comp.Config)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Render(&buf, s, []string{"table2", "table10"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 2") {
		t.Error("selected table2 not rendered")
	}
	if !strings.Contains(out, "Table 10") {
		t.Error("selected table10 (World IPv6 Day) not rendered")
	}
	if strings.Contains(out, "Table 4") {
		t.Error("unselected table4 rendered")
	}
	if err := Render(&buf, s, []string{"table99"}); err == nil {
		t.Error("unknown exhibit accepted by Render")
	}
}
