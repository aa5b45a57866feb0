package analysis

import (
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/store"
	"v6web/internal/topo"
)

// sampleDate dates the samples of tests that do not care about dates:
// a sample needs a date a snapshot carries, which the zero time is not.
var sampleDate = time.Unix(0, 0).UTC()

// addSeries inserts paired per-round samples with the given speeds.
func addSeries(db *store.DB, v store.Vantage, id alexa.SiteID, v4, v6 []float64) {
	for i := range v4 {
		db.AddSample(v, id, topo.V4, store.Sample{
			Round: i, Date: time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, 7*i),
			PageBytes: 30000, Downloads: 5, MeanSpeed: v4[i], CIOK: true,
		})
		db.AddSample(v, id, topo.V6, store.Sample{Date: sampleDate,
			Round: i, PageBytes: 30000, Downloads: 5, MeanSpeed: v6[i], CIOK: true,
		})
	}
}

func flat(n int, level float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = level
	}
	return out
}

func stepAt(n int, at int, before, after float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		if i < at {
			out[i] = before
		} else {
			out[i] = after
		}
	}
	return out
}

func ramp(n int, from, to float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = from + (to-from)*float64(i)/float64(n-1)
	}
	return out
}

// buildDB assembles a small deterministic study at one vantage:
//   - sites 1..4: SP sites in AS 100 (good, comparable)
//   - site 5: SP site in AS 101, bad v6 server (AS 101 also holds
//     site 6 with matching perf -> zero-mode)
//   - site 7: DP site in AS 200 (v6 worse via longer path)
//   - site 8: DL site (v4 AS 300, v6 AS 301)
//   - site 9: removed (transition down)
//   - site 10: removed (insufficient rounds)
//   - site 11: removed (trend up)
func buildDB() *store.DB {
	db := store.NewDB()
	const v = "penn"
	const rounds = 24

	put := func(id alexa.SiteID, rank, v4AS, v6AS int) {
		db.PutSite(store.SiteRow{Site: id, Host: "x", FirstRank: rank, V4AS: v4AS, V6AS: v6AS})
	}

	// Paths: AS 100/101 SP (same path), AS 200 DP, 300/301 for DL.
	db.AddPath(v, topo.V4, 100, 0, []int{0, 10, 100})
	db.AddPath(v, topo.V6, 100, 0, []int{0, 10, 100})
	db.AddPath(v, topo.V4, 101, 0, []int{0, 10, 101})
	db.AddPath(v, topo.V6, 101, 0, []int{0, 10, 101})
	db.AddPath(v, topo.V4, 200, 0, []int{0, 10, 200})
	db.AddPath(v, topo.V6, 200, 0, []int{0, 11, 12, 200})
	db.AddPath(v, topo.V4, 300, 0, []int{0, 10, 300})
	db.AddPath(v, topo.V6, 301, 0, []int{0, 11, 301})
	db.AddPath(v, topo.V4, 301, 0, []int{0, 10, 301})

	for id := alexa.SiteID(1); id <= 4; id++ {
		put(id, int(id), 100, 100)
		addSeries(db, v, id, flat(rounds, 50), flat(rounds, 49))
	}
	put(5, 5, 101, 101)
	addSeries(db, v, 5, flat(rounds, 50), flat(rounds, 25)) // bad v6 server
	put(6, 6, 101, 101)
	addSeries(db, v, 6, flat(rounds, 48), flat(rounds, 47)) // matching site -> zero-mode
	put(7, 7, 200, 200)
	addSeries(db, v, 7, flat(rounds, 50), flat(rounds, 35)) // DP, v6 worse
	put(8, 8, 300, 301)
	addSeries(db, v, 8, flat(rounds, 55), flat(rounds, 40)) // DL
	put(9, 9, 100, 100)
	addSeries(db, v, 9, stepAt(rounds, rounds/2, 60, 25), flat(rounds, 50)) // transition ↓
	put(10, 10, 100, 100)
	addSeries(db, v, 10, flat(3, 50), flat(3, 50)) // insufficient
	put(11, 11, 100, 100)
	addSeries(db, v, 11, ramp(rounds, 30, 70), flat(rounds, 50)) // trend ↗
	return db
}

func analyzeFixture(t *testing.T) *VantageAnalysis {
	t.Helper()
	return AnalyzeSnapshot(buildDB().Freeze(), "penn", DefaultThresholds())
}

func TestAggregateKeepsStableSites(t *testing.T) {
	va := analyzeFixture(t)
	if len(va.Sites) != 11 {
		t.Fatalf("%d aggregated sites", len(va.Sites))
	}
	kept := va.KeptSites()
	if len(kept) != 8 {
		t.Fatalf("kept %d sites, want 8", len(kept))
	}
	removed := va.RemovedSites()
	if len(removed) != 3 {
		t.Fatalf("removed %d sites, want 3", len(removed))
	}
}

func TestFailureCauses(t *testing.T) {
	va := analyzeFixture(t)
	causes := map[alexa.SiteID]Cause{}
	for _, s := range va.RemovedSites() {
		causes[s.ID] = s.Cause
	}
	if causes[9] != CauseTransitionDown {
		t.Fatalf("site 9 cause %v", causes[9])
	}
	if causes[10] != CauseInsufficient {
		t.Fatalf("site 10 cause %v", causes[10])
	}
	if causes[11] != CauseTrendUp {
		t.Fatalf("site 11 cause %v", causes[11])
	}
}

func TestClassification(t *testing.T) {
	va := analyzeFixture(t)
	classes := map[alexa.SiteID]Class{}
	for _, s := range va.Sites {
		classes[s.ID] = s.Class
	}
	for id := alexa.SiteID(1); id <= 6; id++ {
		if classes[id] != SP {
			t.Fatalf("site %d class %v, want SP", id, classes[id])
		}
	}
	if classes[7] != DP {
		t.Fatalf("site 7 class %v, want DP", classes[7])
	}
	if classes[8] != DL {
		t.Fatalf("site 8 class %v, want DL", classes[8])
	}
}

func TestHops(t *testing.T) {
	va := analyzeFixture(t)
	for _, s := range va.Sites {
		if s.ID == 7 {
			if s.HopsV4 != 2 || s.HopsV6 != 3 {
				t.Fatalf("site 7 hops %d/%d", s.HopsV4, s.HopsV6)
			}
		}
		if s.ID == 1 && (s.HopsV4 != 2 || s.HopsV6 != 2) {
			t.Fatalf("site 1 hops %d/%d", s.HopsV4, s.HopsV6)
		}
	}
}

func TestGroupByASAndCategorize(t *testing.T) {
	va := analyzeFixture(t)
	groups := va.GroupByAS(SP)
	if len(groups) != 2 {
		t.Fatalf("%d SP groups", len(groups))
	}
	byAS := map[int]ASGroup{}
	for _, g := range groups {
		byAS[g.AS] = g
	}
	if got := Categorize(byAS[100], 0.10, 4); got != ASComparable {
		t.Fatalf("AS 100: %v", got)
	}
	// AS 101: average v6 (25+47)/2=36 vs v4 49 -> worse, but site 6
	// matches -> zero-mode.
	if got := Categorize(byAS[101], 0.10, 4); got != ASZeroMode {
		t.Fatalf("AS 101: %v", got)
	}
	dp := va.GroupByAS(DP)
	if len(dp) != 1 || dp[0].AS != 200 {
		t.Fatalf("DP groups: %+v", dp)
	}
	if got := Categorize(dp[0], 0.10, 4); got == ASComparable {
		t.Fatal("DP AS comparable despite 30% deficit")
	}
}

func TestCategorizeSmall(t *testing.T) {
	g := ASGroup{AS: 1, Sites: []SiteAgg{{MeanV4: 50, MeanV6: 20}}}
	if got := Categorize(g, 0.10, 4); got != ASSmall {
		t.Fatalf("single bad site: %v", got)
	}
	big := ASGroup{AS: 1}
	for i := 0; i < 6; i++ {
		big.Sites = append(big.Sites, SiteAgg{MeanV4: 50, MeanV6: 20})
	}
	if got := Categorize(big, 0.10, 4); got != ASWorse {
		t.Fatalf("six bad sites: %v", got)
	}
}

func TestTable2(t *testing.T) {
	s := NewStudy(analyzeFixture(t))
	rows, all := s.Table2()
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	r := rows[0]
	if r.SitesTotal != 11 || r.SitesKept != 8 {
		t.Fatalf("sites: %+v", r)
	}
	// Destination ASes: v4 {100,101,200,300}, v6 {100,101,200,301}.
	if r.DestV4 != 4 || r.DestV6 != 4 {
		t.Fatalf("dest ASes: %+v", r)
	}
	// Crossed: v4 paths touch {0,10,100,101,200,300,301}=7; v6 paths
	// touch {0,10,11,12,100,101,200,301}=8.
	if r.CrossV4 != 7 || r.CrossV6 != 8 {
		t.Fatalf("crossed: %+v", r)
	}
	if all.DestV4 != 4 || all.DestV6 != 4 {
		t.Fatalf("all: %+v", all)
	}
}

func TestTable3(t *testing.T) {
	s := NewStudy(analyzeFixture(t))
	rows := s.Table3()
	r := rows[0]
	if r.Insufficient != 1 || r.TransDown != 1 || r.TrendUp != 1 || r.TransUp != 0 || r.TrendDown != 0 {
		t.Fatalf("table3: %+v", r)
	}
}

func TestTable4(t *testing.T) {
	s := NewStudy(analyzeFixture(t))
	r := s.Table4()[0]
	if r.SP != 6 || r.DP != 1 || r.DL != 1 {
		t.Fatalf("table4: %+v", r)
	}
}

func TestTable5(t *testing.T) {
	s := NewStudy(analyzeFixture(t))
	r := s.Table5()[0]
	// Removed with sufficient samples: site 9 (SP, v6 50 vs v4 ~42.5
	// mean -> v6 good) and site 11 (SP, v6 50 vs v4 mean 50 -> good).
	if r.SPGood != 2 || r.SPBad != 0 || r.DPGood+r.DPBad+r.DLGood+r.DLBad != 0 {
		t.Fatalf("table5: %+v", r)
	}
}

func TestTable6(t *testing.T) {
	s := NewStudy(analyzeFixture(t))
	r := s.Table6()[0]
	if r.Sites != 1 || r.FracV4GE != 1 {
		t.Fatalf("table6: %+v", r)
	}
	if r.MeanV4 != 55 || r.MeanV6 != 40 {
		t.Fatalf("table6 means: %+v", r)
	}
}

func TestTable7And9(t *testing.T) {
	s := NewStudy(analyzeFixture(t))
	t7 := s.Table7()
	if len(t7) != 2 {
		t.Fatalf("%d table7 rows", len(t7))
	}
	// DL+DP: sites 7 (2 v4 hops, 3 v6 hops) and 8 (2 v4, 2 v6).
	v4row, v6row := t7[0], t7[1]
	if v4row.Count[1] != 2 {
		t.Fatalf("t7 v4 counts: %+v", v4row.Count)
	}
	if v6row.Count[1] != 1 || v6row.Count[2] != 1 {
		t.Fatalf("t7 v6 counts: %+v", v6row.Count)
	}
	t9 := s.Table9()
	// SP sites all at 2 hops.
	if t9[0].Count[1] != 6 || t9[1].Count[1] != 6 {
		t.Fatalf("t9 counts: %+v %+v", t9[0].Count, t9[1].Count)
	}
	// Speeds close between families for SP.
	if d := t9[0].Speed[1] - t9[1].Speed[1]; d < 0 || d > 10 {
		t.Fatalf("t9 speeds: %v vs %v", t9[0].Speed[1], t9[1].Speed[1])
	}
}

func TestTable8(t *testing.T) {
	s := NewStudy(analyzeFixture(t))
	r := s.Table8()[0]
	if r.NASes != 2 {
		t.Fatalf("table8 NASes: %+v", r)
	}
	if r.FracComparable != 0.5 || r.FracZeroMode != 0.5 {
		t.Fatalf("table8 fracs: %+v", r)
	}
	// Single vantage: no cross-checks possible.
	if r.XCheckPos != 0 || r.XCheckNeg != 0 {
		t.Fatalf("table8 xchecks: %+v", r)
	}
}

func TestTable8CrossChecks(t *testing.T) {
	// Two vantages seeing AS 100 in SP with identical data: positive
	// cross-check.
	db := buildDB()
	const v2 = "comcast"
	db.AddPath(v2, topo.V4, 100, 0, []int{7, 20, 100})
	db.AddPath(v2, topo.V6, 100, 0, []int{7, 20, 100})
	for id := alexa.SiteID(1); id <= 4; id++ {
		addSeries(db, v2, id, flat(24, 44), flat(24, 43))
	}
	va1 := AnalyzeSnapshot(db.Freeze(), "penn", DefaultThresholds())
	va2 := AnalyzeSnapshot(db.Freeze(), v2, DefaultThresholds())
	s := NewStudy(va1, va2)
	rows := s.Table8()
	for _, r := range rows {
		if r.XCheckNeg != 0 {
			t.Fatalf("negative cross-check: %+v", r)
		}
	}
	if rows[0].XCheckPos == 0 || rows[1].XCheckPos == 0 {
		t.Fatalf("no positive cross-checks: %+v", rows)
	}
}

func TestTable11(t *testing.T) {
	s := NewStudy(analyzeFixture(t))
	r := s.Table11()[0]
	if r.NASes != 1 || r.FracComparable != 0 {
		t.Fatalf("table11: %+v", r)
	}
}

func TestTable13(t *testing.T) {
	s := NewStudy(analyzeFixture(t))
	good := s.GoodV6ASes()
	// Good set: v6 path to AS 100 = {0,10,100}.
	for _, want := range []int{0, 10, 100} {
		if !good[want] {
			t.Fatalf("AS %d missing from good set %v", want, good)
		}
	}
	if good[11] || good[200] {
		t.Fatalf("bad ASes leaked into good set: %v", good)
	}
	rows := s.Table13()
	r := rows[0]
	if r.NDsts != 1 {
		t.Fatalf("table13: %+v", r)
	}
	// DP path {0,11,12,200}: only AS 0 is good -> 25% -> bucket [25,50).
	if r.Frac[3] != 1 {
		t.Fatalf("table13 buckets: %+v", r.Frac)
	}
}

func TestV6FasterOdds(t *testing.T) {
	va := analyzeFixture(t)
	odds := va.V6FasterOdds(nil)
	if odds != 0 {
		t.Fatalf("odds %v: no site has v6 strictly faster in fixture", odds)
	}
	// Filter that excludes everything.
	if va.V6FasterOdds(func(SiteAgg) bool { return false }) != 0 {
		t.Fatal("empty filter odds")
	}
}

func TestStringers(t *testing.T) {
	if DL.String() != "DL" || SP.String() != "SP" || DP.String() != "DP" || ClassUnknown.String() != "unknown" {
		t.Fatal("Class strings")
	}
	if CauseTransitionUp.String() != "↑" || CauseTrendDown.String() != "↘" || CauseInsufficient.String() != "insufficient" {
		t.Fatal("Cause strings")
	}
	if ASComparable.String() != "IPv6≈IPv4" || ASZeroMode.String() != "zero-mode" {
		t.Fatal("ASCategory strings")
	}
}

func TestHopBucket(t *testing.T) {
	cases := []struct{ hops, want int }{
		{-1, -1}, {0, -1}, {1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 4}, {9, 4},
	}
	for _, c := range cases {
		if got := HopBucket(c.hops); got != c.want {
			t.Errorf("HopBucket(%d) = %d, want %d", c.hops, got, c.want)
		}
	}
}

func TestTable8NegativeCrossCheck(t *testing.T) {
	// Two vantages see AS 100 in SP, but with contradictory data:
	// comparable at one, clearly worse (no zero-mode) at the other.
	db := buildDB()
	const v2 = "comcast"
	db.AddPath(v2, topo.V4, 100, 0, []int{7, 20, 100})
	db.AddPath(v2, topo.V6, 100, 0, []int{7, 20, 100})
	for id := alexa.SiteID(1); id <= 4; id++ {
		addSeries(db, v2, id, flat(24, 50), flat(24, 20)) // all badly worse
	}
	va1 := AnalyzeSnapshot(db.Freeze(), "penn", DefaultThresholds())
	va2 := AnalyzeSnapshot(db.Freeze(), v2, DefaultThresholds())
	rows := NewStudy(va1, va2).Table8()
	neg := 0
	for _, r := range rows {
		neg += r.XCheckNeg
	}
	if neg == 0 {
		t.Fatalf("contradictory vantages produced no negative cross-check: %+v", rows)
	}
}

func TestClassUnknownWhenPathsMissing(t *testing.T) {
	db := store.NewDB()
	db.PutSite(store.SiteRow{Site: 1, Host: alexa.HostName(1), FirstRank: 1, V4AS: 100, V6AS: 100})
	addSeries(db, "penn", 1, flat(24, 50), flat(24, 50))
	// No paths recorded at all.
	va := AnalyzeSnapshot(db.Freeze(), "penn", DefaultThresholds())
	if len(va.Sites) != 1 {
		t.Fatalf("%d sites", len(va.Sites))
	}
	if va.Sites[0].Class != ClassUnknown {
		t.Fatalf("class %v without paths", va.Sites[0].Class)
	}
	if va.Sites[0].HopsV4 != -1 || va.Sites[0].HopsV6 != -1 {
		t.Fatalf("hops without paths: %d %d", va.Sites[0].HopsV4, va.Sites[0].HopsV6)
	}
}

func TestUnpairedRoundsIgnored(t *testing.T) {
	db := store.NewDB()
	db.PutSite(store.SiteRow{Site: 1, Host: alexa.HostName(1), FirstRank: 1, V4AS: 100, V6AS: 100})
	db.AddPath("penn", topo.V4, 100, 0, []int{0, 100})
	db.AddPath("penn", topo.V6, 100, 0, []int{0, 100})
	// v4 has rounds 0..23, v6 only even rounds; only pairs count.
	for r := 0; r < 24; r++ {
		db.AddSample("penn", 1, topo.V4, store.Sample{Date: sampleDate, Round: r, MeanSpeed: 50, CIOK: true})
		if r%2 == 0 {
			db.AddSample("penn", 1, topo.V6, store.Sample{Date: sampleDate, Round: r, MeanSpeed: 49, CIOK: true})
		}
	}
	va := AnalyzeSnapshot(db.Freeze(), "penn", DefaultThresholds())
	if va.Sites[0].Rounds != 12 {
		t.Fatalf("paired rounds %d, want 12", va.Sites[0].Rounds)
	}
}

func TestCIFailedRoundsExcluded(t *testing.T) {
	db := store.NewDB()
	db.PutSite(store.SiteRow{Site: 1, Host: alexa.HostName(1), FirstRank: 1, V4AS: 100, V6AS: 100})
	db.AddPath("penn", topo.V4, 100, 0, []int{0, 100})
	db.AddPath("penn", topo.V6, 100, 0, []int{0, 100})
	for r := 0; r < 24; r++ {
		ok := r >= 4 // first four rounds failed the within-round CI
		db.AddSample("penn", 1, topo.V4, store.Sample{Date: sampleDate, Round: r, MeanSpeed: 50, CIOK: ok})
		db.AddSample("penn", 1, topo.V6, store.Sample{Date: sampleDate, Round: r, MeanSpeed: 49, CIOK: ok})
	}
	va := AnalyzeSnapshot(db.Freeze(), "penn", DefaultThresholds())
	if va.Sites[0].Rounds != 20 {
		t.Fatalf("rounds %d, want 20 (CI-failed rounds excluded)", va.Sites[0].Rounds)
	}
}

// TestAnalyzeSnapshotAllocsPerSeries: the analysis expands series
// into scratch buffers reused across sites and reads site rows
// without building their host strings, so its allocations grow with
// the partitions it builds, not with the sites it reads — a fresh
// []Sample per (site, family) alone would cost 2N.
func TestAnalyzeSnapshotAllocsPerSeries(t *testing.T) {
	const n, rounds = 600, 12
	db := store.NewDB()
	db.Reserve(n, 0, 0)
	for id := alexa.SiteID(0); id < n; id++ {
		db.PutSite(store.SiteRow{Site: id, Host: alexa.HostName(id), FirstRank: int(id) + 1, V4AS: 100, V6AS: 100})
		addSeries(db, "penn", id, flat(rounds, 50), flat(rounds, 49))
	}
	db.AddPath("penn", topo.V4, 100, 0, []int{0, 10, 100})
	db.AddPath("penn", topo.V6, 100, 0, []int{0, 10, 100})
	snap := db.Freeze()
	th := DefaultThresholds()
	if kept := len(AnalyzeSnapshot(snap, "penn", th).KeptSites()); kept != n {
		t.Fatalf("kept %d of %d sites", kept, n)
	}
	allocs := testing.AllocsPerRun(5, func() { AnalyzeSnapshot(snap, "penn", th) })
	t.Logf("%.0f allocations over %d kept sites", allocs, n)
	if allocs >= n {
		t.Fatalf("AnalyzeSnapshot made %.0f allocations over %d kept sites", allocs, n)
	}
}
