package core

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"v6web/internal/analysis"
	"v6web/internal/topo"
)

// testScenario builds and runs a moderate scenario once, shared by
// the shape tests (running the study is the expensive part).
var (
	scOnce sync.Once
	sc     *Scenario
	scErr  error
)

func runScenario(t *testing.T) *Scenario {
	t.Helper()
	scOnce.Do(func() {
		cfg := DefaultConfig(42)
		cfg.NASes = 1000
		cfg.ListSize = 10000
		cfg.Extended = 2000
		sc, scErr = NewScenario(cfg)
		if scErr != nil {
			return
		}
		if scErr = sc.RunContext(context.Background()); scErr != nil {
			return
		}
		scErr = sc.RunWorldV6DayContext(context.Background())
	})
	if scErr != nil {
		t.Fatal(scErr)
	}
	return sc
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NASes = 10 },
		func(c *Config) { c.ListSize = 10 },
		func(c *Config) { c.Rounds = 1 },
		func(c *Config) { c.Vantages = []VantagePoint{} },
		func(c *Config) { c.Vantages = []VantagePoint{{Name: "x", StartRound: 999}} },
	}
	for i, mut := range bad {
		cfg := DefaultConfig(1)
		mut(&cfg)
		if cfg.Vantages == nil {
			cfg.Vantages = DefaultVantages()
		}
		if _, err := NewScenario(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestVantagePlacement(t *testing.T) {
	s := runScenario(t)
	seen := map[int]bool{}
	for _, vp := range s.Cfg.Vantages {
		as := s.VantageAS(vp.Name)
		if as < 0 || as >= s.Graph.N() {
			t.Fatalf("vantage %s at AS %d", vp.Name, as)
		}
		if seen[as] {
			t.Fatalf("vantage %s shares AS %d", vp.Name, as)
		}
		seen[as] = true
		if !s.Graph.AS(as).V6 {
			t.Fatalf("vantage %s on non-v6 AS", vp.Name)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	s := runScenario(t)
	dates, series := s.Fig1()
	if len(dates) != s.Cfg.Rounds || len(series) != s.Cfg.Rounds {
		t.Fatalf("series length %d/%d", len(dates), len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1] {
			t.Fatalf("reachability decreased at round %d", i)
		}
	}
	// Ends around 1%, with World IPv6 Day the dominant jump.
	last := series[len(series)-1]
	if last < 0.006 || last > 0.025 {
		t.Fatalf("final reachability %v", last)
	}
	var v6dayJump float64
	for i := 1; i < len(series); i++ {
		if dates[i].After(s.Timeline.V6Day.AddDate(0, 0, -7)) && dates[i].Before(s.Timeline.V6Day.AddDate(0, 0, 8)) {
			if j := series[i] - series[i-1]; j > v6dayJump {
				v6dayJump = j
			}
		}
	}
	if v6dayJump < last*0.25 {
		t.Fatalf("no visible World IPv6 Day jump: %v of %v", v6dayJump, last)
	}
}

func TestFig3aShape(t *testing.T) {
	s := runScenario(t)
	fr := s.Fig3a()
	// Reachability falls monotonically with rank (Fig 3a's bars).
	for i := 1; i < len(fr); i++ {
		if fr[i] > fr[i-1] {
			t.Fatalf("rank dependence missing: %v", fr)
		}
	}
	if fr[0] < 0.05 || fr[0] > 0.15 {
		t.Fatalf("Top 10 reachability %v far from ~10%%", fr[0])
	}
	if fr[5] < 0.006 || fr[5] > 0.02 {
		t.Fatalf("Top 1M reachability %v far from ~1%%", fr[5])
	}
}

func TestFig3bPopulationsAgree(t *testing.T) {
	s := runScenario(t)
	top, ext := s.Fig3b("Penn")
	if top <= 0 || ext <= 0 {
		t.Fatalf("degenerate odds: %v %v", top, ext)
	}
	// The paper's point: the extended population tells the same
	// story as the top-1M list.
	if diff := top - ext; diff < -0.12 || diff > 0.12 {
		t.Fatalf("populations disagree: top=%v ext=%v", top, ext)
	}
}

func TestH1SPComparable(t *testing.T) {
	s := runScenario(t)
	study := s.Study()
	rows := study.Table8()
	if len(rows) != 4 {
		t.Fatalf("%d analyzed vantages", len(rows))
	}
	for _, r := range rows {
		if r.NASes < 2 {
			continue // too small to judge
		}
		got := r.FracComparable + r.FracZeroMode
		if got < 0.60 {
			t.Fatalf("H1 violated at %s: comparable+zeromode = %v (%+v)", r.Vantage, got, r)
		}
		if r.FracWorse > 0.25 {
			t.Fatalf("H1: too many flatly worse SP ASes at %s: %+v", r.Vantage, r)
		}
	}
}

func TestH2DPWorse(t *testing.T) {
	s := runScenario(t)
	study := s.Study()
	sp := study.Table8()
	dp := study.Table11()
	for i := range dp {
		if dp[i].NASes < 5 || sp[i].NASes < 2 {
			continue
		}
		if dp[i].FracComparable > 0.40 {
			t.Fatalf("H2: DP too often comparable at %s: %+v", dp[i].Vantage, dp[i])
		}
		// The defining gap: SP comparable ≫ DP comparable.
		if sp[i].FracComparable <= dp[i].FracComparable {
			t.Fatalf("H2 gap missing at %s: SP %v vs DP %v",
				sp[i].Vantage, sp[i].FracComparable, dp[i].FracComparable)
		}
	}
}

func TestDLFavorsV4(t *testing.T) {
	s := runScenario(t)
	for _, r := range s.Study().Table6() {
		if r.Sites < 5 {
			continue
		}
		if r.FracV4GE < 0.6 {
			t.Fatalf("DL does not favor IPv4 at %s: %+v", r.Vantage, r)
		}
		if r.MeanV4 <= r.MeanV6 {
			t.Fatalf("DL mean speeds inverted at %s: %+v", r.Vantage, r)
		}
	}
}

func TestSPHopSpeedsTrack(t *testing.T) {
	s := runScenario(t)
	rows := s.Study().Table9()
	for i := 0; i+1 < len(rows); i += 2 {
		v4, v6 := rows[i], rows[i+1]
		for b := 0; b < analysis.HopBuckets; b++ {
			if v4.Count[b] < 5 || v6.Count[b] < 5 {
				continue
			}
			ratio := v6.Speed[b] / v4.Speed[b]
			if ratio < 0.75 || ratio > 1.25 {
				t.Fatalf("SP speeds diverge at %s bucket %d: v4=%v v6=%v",
					v4.Vantage, b, v4.Speed[b], v6.Speed[b])
			}
		}
	}
}

func TestV4SpeedFallsWithHops(t *testing.T) {
	s := runScenario(t)
	rows := s.Study().Table7()
	for i := 0; i < len(rows); i += 2 {
		r := rows[i] // IPv4 row
		// Find two populated buckets at distance >= 2 and check
		// decline.
		lo, hi := -1, -1
		for b := 0; b < analysis.HopBuckets; b++ {
			if r.Count[b] >= 10 {
				if lo < 0 {
					lo = b
				}
				hi = b
			}
		}
		if lo >= 0 && hi-lo >= 2 {
			if r.Speed[hi] >= r.Speed[lo] {
				t.Fatalf("v4 speed not declining with hops at %s: %+v", r.Vantage, r)
			}
		}
	}
}

func TestWorldV6DayBetterThanMainSP(t *testing.T) {
	s := runScenario(t)
	v6day := s.V6DayStudy().Table8()
	any := false
	for _, r := range v6day {
		if r.NASes < 3 {
			continue
		}
		any = true
		if r.FracComparable < 0.6 {
			t.Fatalf("World IPv6 Day SP not mostly comparable at %s: %+v", r.Vantage, r)
		}
	}
	if !any {
		t.Skip("too few V6Day SP ASes at this scale")
	}
}

func TestTable13Concentration(t *testing.T) {
	s := runScenario(t)
	rows := s.Study().Table13()
	for _, r := range rows {
		if r.NDsts < 10 {
			continue
		}
		// Paths are mostly but not entirely made of good ASes: the
		// mass must sit above the [0,25) bucket.
		if r.Frac[4] > 0.2 {
			t.Fatalf("good-AS coverage collapsed at %s: %+v", r.Vantage, r.Frac)
		}
		if r.Frac[0] > 0.6 {
			t.Fatalf("good-AS coverage saturated at %s: %+v", r.Vantage, r.Frac)
		}
	}
}

func TestCrossChecksMostlyPositive(t *testing.T) {
	s := runScenario(t)
	pos, neg := 0, 0
	for _, r := range s.Study().Table8() {
		pos += r.XCheckPos
		neg += r.XCheckNeg
	}
	if pos == 0 {
		t.Fatal("no cross-checks at all")
	}
	if neg*5 > pos {
		t.Fatalf("too many negative cross-checks: +%d -%d", pos, neg)
	}
}

func TestReportAllRenders(t *testing.T) {
	s := runScenario(t)
	var buf bytes.Buffer
	if err := s.ReportAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 1", "Figure 3a", "Figure 3b", "Table 1", "Table 2",
		"Table 3", "Table 4", "Table 5", "Table 6", "Table 7",
		"Table 8", "Table 9", "Table 10", "Table 11", "Table 12", "Table 13",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestRunIdempotent(t *testing.T) {
	s := runScenario(t)
	_, _, samples, _ := s.DB.Counts()
	if err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, _, samples2, _ := s.DB.Counts()
	if samples != samples2 {
		t.Fatalf("second Run added samples: %d -> %d", samples, samples2)
	}
}

func TestPeeringParityAblation(t *testing.T) {
	// The paper's recommendation: peering parity closes the gap. A
	// full-parity topology should classify far more SP sites than
	// the default.
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	build := func(parity float64) (sp, dp int) {
		cfg := DefaultConfig(7)
		cfg.NASes = 700
		cfg.ListSize = 6000
		cfg.Extended = 0
		cfg.Rounds = 20
		cfg.Vantages = ScaledVantages(cfg.Rounds)
		tc := topo.DefaultGenConfig(cfg.NASes, cfg.Seed)
		tc.V6EdgeParity = parity
		if parity == 1.0 {
			tc.TunnelFrac = 0
		}
		cfg.TopoOverride = &tc
		s, err := NewScenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, r := range s.Study().Table4() {
			sp += r.SP
			dp += r.DP
		}
		return sp, dp
	}
	spLow, dpLow := build(0.5)
	spHigh, dpHigh := build(1.0)
	fracLow := float64(spLow) / float64(spLow+dpLow+1)
	fracHigh := float64(spHigh) / float64(spHigh+dpHigh+1)
	if fracHigh <= fracLow {
		t.Fatalf("peering parity did not raise SP share: %.2f -> %.2f", fracLow, fracHigh)
	}
}
