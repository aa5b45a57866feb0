package daemon

// Versioned snapshot serving: on each round boundary the supervisor
// builds a Version — a frozen store view analyzed into a study plus
// the campaign's warm exhibits pre-rendered to bytes — and swaps it
// behind an atomic pointer. Requests render from the Version they
// loaded, never from live campaign state, so the HTTP layer serves
// round N lock-free while round N+1 computes.
//
// Versions are built synchronously on the campaign goroutine at the
// round boundary (after NextRound returns, before the next round
// starts). That placement is load-bearing twice over: the store has no
// concurrent writer while Freeze's view is analyzed, and the scenario
// (ranked list, adoption model) is in exactly the state a Resume
// fast-forwarded to the same round reproduces — which is what makes a
// resumed campaign's served exhibits byte-identical to an
// uninterrupted run's.

import (
	"bytes"
	"sort"
	"time"

	"v6web/internal/analysis"
	"v6web/internal/core"
	"v6web/internal/report"
	"v6web/internal/store"
)

// fig3bVantage is the vantage Figure 3b reports on, matching
// core.RenderExhibits.
const fig3bVantage = "Penn"

// servableExhibits is what the daemon can render from a Version: the
// paper's figures 1/3a/3b, the vantage roster, and the measurement
// tables 2–13. The scenario-internal extensions (betterv6, tunnels,
// coverage, traceroute) need live campaign state and are batch-report
// territory.
var servableExhibits = []string{
	"fig1", "fig3a", "fig3b", "table1",
	"table2", "table3", "table4", "table5", "table6", "table7",
	"table8", "table9", "table10", "table11", "table12", "table13",
}

func servable(name string) bool {
	for _, ex := range servableExhibits {
		if ex == name {
			return true
		}
	}
	return false
}

// Version is one immutable serving state: everything a request needs,
// captured at a round boundary. The warm map holds the campaign's
// selected exhibits pre-rendered; everything else servable is rendered
// on demand from the immutable studies under the daemon's bounded
// render concurrency.
type Version struct {
	Seq      uint64
	Round    int // completed main-study rounds
	Rounds   int
	Date     time.Time // date of the last completed round (zero before round 1)
	Complete bool

	study *analysis.Study
	v6day *analysis.Study // non-nil only when Complete

	fig1Dates  []time.Time
	fig1Series []float64
	fig3a      [6]float64
	fig3bTop   float64
	fig3bExt   float64
	table1     []report.VantageInfo

	warm map[string][]byte
}

// buildVersion captures the campaign's serving state at the current
// round boundary: the tables from snap, the main study database's
// snapshot, and the figures and roster from s. v6day is nil until the
// side experiment has run (so Tables 10/12 are skipped).
func buildVersion(s *core.Scenario, snap *store.Snapshot, v6day *analysis.Study, complete bool, warmSet map[string]bool) *Version {
	study := report.StudyOfSnapshot(snap, analysis.DefaultThresholds())
	v := &Version{
		Round:    s.RoundsDone(),
		Rounds:   s.Cfg.Rounds,
		Complete: complete,
		study:    study,
		v6day:    v6day,
		fig3a:    s.Fig3a(),
		table1:   s.Table1(),
	}
	v.fig1Dates, v.fig1Series = s.Fig1()
	if v.Round > 0 {
		v.Date = v.fig1Dates[v.Round-1]
	}
	// Figure 3b from the all-vantage study: per-vantage analyses are
	// independent, so the numbers equal core.Fig3b's (which uses the
	// AS_PATH-only study) whenever the vantage has data.
	if va := study.Vantage(fig3bVantage); va != nil {
		v.fig3bTop = va.V6FasterOdds(func(sa analysis.SiteAgg) bool { return sa.ID < core.ExtendedBase })
		v.fig3bExt = va.V6FasterOdds(nil)
	}
	v.prerender(warmSet)
	return v
}

// loadedVersion rebuilds a Version for a completed campaign from its
// saved databases, without re-running any monitoring: the tables from
// the loaded databases themselves, analyzed exactly as `v6report -db`
// does, and Figures 1 and 3a and Table 1 from a fresh scenario
// fast-forwarded through the whole campaign (pure list/adoption state
// — no measurement).
func loadedVersion(cfg core.Config, main, v6day *store.DB, warmSet map[string]bool) (*Version, error) {
	s, err := core.NewScenario(cfg)
	if err != nil {
		return nil, err
	}
	s.FastForward(cfg.Rounds)
	v6 := report.StudyOfSnapshot(v6day.Freeze(), report.V6DayThresholds())
	return buildVersion(s, main.Freeze(), v6, true, warmSet), nil
}

// Exhibit renders the named exhibit from this version ("" selects the
// full study report — the same bytes `v6report -db` prints for the
// saved campaign). ok is false for names the daemon cannot serve.
func (v *Version) Exhibit(name string) (data []byte, ok bool) {
	if b, found := v.warm[name]; found {
		return b, true
	}
	return v.render(name)
}

// Warm reports whether the named exhibit is pre-rendered in this
// version (served without touching the render limiter).
func (v *Version) Warm(name string) bool {
	_, ok := v.warm[name]
	return ok
}

// WarmNames returns the pre-rendered exhibit names, sorted.
func (v *Version) WarmNames() []string {
	out := make([]string, 0, len(v.warm))
	for name := range v.warm {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// reportExhibit is the pseudo-exhibit name for the full measurement
// report (tables 2–13 in order): byte-identical to `v6report -db` over
// the campaign's saved databases.
const reportExhibit = "report"

func (v *Version) render(name string) ([]byte, bool) {
	var buf bytes.Buffer
	switch name {
	case reportExhibit:
		report.RenderStudy(&buf, v.study, v.v6day)
	case "fig1":
		report.Fig1(&buf, v.fig1Dates, v.fig1Series)
	case "fig3a":
		report.Fig3a(&buf, v.fig3a)
	case "fig3b":
		report.Fig3b(&buf, fig3bVantage, v.fig3bTop, v.fig3bExt)
	case "table1":
		report.Table1(&buf, v.table1)
	default:
		if !servable(name) {
			return nil, false
		}
		report.RenderStudySelected(&buf, v.study, v.v6day, map[string]bool{name: true})
	}
	return buf.Bytes(), true
}

// prerender fills the warm map: the selection (nil means every
// servable exhibit) plus the full report, which the smoke and property
// tests diff against batch v6report output.
func (v *Version) prerender(selected map[string]bool) {
	v.warm = make(map[string][]byte, len(servableExhibits)+1)
	for _, name := range servableExhibits {
		if selected != nil && !selected[name] {
			continue
		}
		if b, ok := v.render(name); ok {
			v.warm[name] = b
		}
	}
	b, _ := v.render(reportExhibit)
	v.warm[reportExhibit] = b
}
