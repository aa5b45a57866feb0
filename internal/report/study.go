package report

import (
	"io"

	"v6web/internal/analysis"
	"v6web/internal/store"
)

// StudyOfSnapshot analyzes every vantage captured in a frozen store
// view, in the store's canonical (sorted) vantage order, and returns
// the combined study. `v6report -db` and the v6mond serving layer both
// build their studies here, so a served exhibit and a `v6report -db`
// one agree on vantage coverage and row order. A fresh campaign's
// study (core.Scenario.Study) analyzes only the AS_PATH vantages, so
// it covers fewer vantages than this one over the same database.
func StudyOfSnapshot(snap *store.Snapshot, th analysis.Thresholds) *analysis.Study {
	var vas []*analysis.VantageAnalysis
	for _, v := range snap.Vantages() {
		vas = append(vas, analysis.AnalyzeSnapshot(snap, v, th))
	}
	return analysis.NewStudy(vas...)
}

// V6DayThresholds returns the analysis thresholds for the World IPv6
// Day side experiment: the default stop rule relaxed to the event's
// fewer, denser 30-minute rounds.
func V6DayThresholds() analysis.Thresholds {
	th := analysis.DefaultThresholds()
	th.CI.MinN = 6
	return th
}

// RenderStudy renders the paper's measurement tables (2–13) for a
// completed study in exhibit order. v6day carries the World IPv6 Day
// side experiment (Tables 10 and 12); pass nil when it was not run or
// not saved, and those two tables are skipped. Scenario.ReportAll,
// `v6report -db`, and the scenario layer's pack-selected rendering
// all go through this one path (RenderStudySelected), so every
// surface agrees on table selection and captions. They do not agree
// on rows: the study passed in decides the vantages, and
// StudyOfSnapshot's covers more than a fresh campaign's.
func RenderStudy(w io.Writer, study *analysis.Study, v6day *analysis.Study) {
	RenderStudySelected(w, study, v6day, nil)
}

// RenderStudySelected renders the subset of the measurement tables
// named in selected ("table2" … "table13"), in exhibit order; a nil
// selection renders them all. Tables 10 and 12 additionally require
// v6day and are skipped when it is nil.
func RenderStudySelected(w io.Writer, study *analysis.Study, v6day *analysis.Study, selected map[string]bool) {
	want := func(name string) bool { return selected == nil || selected[name] }
	if want("table2") {
		rows2, all2 := study.Table2()
		Table2(w, rows2, all2)
	}
	if want("table3") {
		Table3(w, study.Table3())
	}
	if want("table4") {
		Table4(w, study.Table4())
	}
	if want("table5") {
		Table5(w, study.Table5())
	}
	if want("table6") {
		Table6(w, study.Table6())
	}
	if want("table7") {
		HopTable(w, "Table 7: DL+DP sites — performance (kbytes/sec) by hop count", study.Table7())
	}
	if want("table8") {
		Table8(w, study.Table8())
	}
	if want("table9") {
		HopTable(w, "Table 9: destination ASes in SP — performance (kbytes/sec) by hop count", study.Table9())
	}
	if v6day != nil && want("table10") {
		Table10(w, v6day.Table8())
	}
	if want("table11") {
		Table11(w, study.Table11())
	}
	if v6day != nil && want("table12") {
		Table12(w, v6day.Table11())
	}
	if want("table13") {
		Table13(w, study.Table13())
	}
}
