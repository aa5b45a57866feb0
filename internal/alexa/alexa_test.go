package alexa

import (
	"testing"
	"time"
)

func newModel(t *testing.T, size int, seed int64) *Model {
	t.Helper()
	m, err := New(DefaultConfig(size, seed))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewList(t *testing.T) {
	m := newModel(t, 1000, 1)
	if m.Size() != 1000 || m.TotalSeen() != 1000 || m.Round() != 0 {
		t.Fatalf("bad init: size=%d seen=%d round=%d", m.Size(), m.TotalSeen(), m.Round())
	}
	r := m.Ranked()
	if len(r) != 1000 {
		t.Fatalf("ranked len %d", len(r))
	}
	seen := map[SiteID]bool{}
	for i, s := range r {
		if seen[s] {
			t.Fatalf("duplicate site %d", s)
		}
		seen[s] = true
		if m.FirstSeenRank(s) != i+1 {
			t.Fatalf("first rank of %d = %d, want %d", s, m.FirstSeenRank(s), i+1)
		}
	}
}

// HostName is the canonical host the store interns site rows against:
// a row whose host equals it is stored and snapshotted without the
// string, so its spelling is part of the snapshot format.
func TestHostName(t *testing.T) {
	if got := HostName(42); got != "site42.v6web.test" {
		t.Fatalf("HostName(42) = %q", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{Size: 0},
		{Size: 10, ChurnPerRound: -0.1},
		{Size: 10, ChurnPerRound: 1.5},
		{Size: 10, ChurnPerRound: 0.1, TailBias: 2},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestChurnGrowsSeenSet(t *testing.T) {
	m := newModel(t, 2000, 2)
	for i := 0; i < 25; i++ {
		m.Advance()
	}
	// 4% churn for 25 rounds doubles the distinct population, the
	// paper's "over 2 millions sites" observation.
	if m.TotalSeen() < 3000 || m.TotalSeen() > 4500 {
		t.Fatalf("seen %d after 25 rounds of churn", m.TotalSeen())
	}
	if m.Round() != 25 {
		t.Fatalf("round = %d", m.Round())
	}
}

func TestChurnTailBiased(t *testing.T) {
	m := newModel(t, 10000, 3)
	orig := map[SiteID]bool{}
	for _, s := range m.Ranked() {
		orig[s] = true
	}
	for i := 0; i < 10; i++ {
		m.Advance()
	}
	headChanged, tailChanged := 0, 0
	for i, s := range m.Ranked() {
		if !orig[s] {
			if i < 5000 {
				headChanged++
			} else {
				tailChanged++
			}
		}
	}
	if tailChanged <= headChanged {
		t.Fatalf("churn not tail-biased: head %d tail %d", headChanged, tailChanged)
	}
}

func TestDeterministicChurn(t *testing.T) {
	a := newModel(t, 500, 9)
	b := newModel(t, 500, 9)
	for i := 0; i < 5; i++ {
		a.Advance()
		b.Advance()
	}
	ra, rb := a.Ranked(), b.Ranked()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("lists diverge at %d", i)
		}
	}
}

func TestRankBucket(t *testing.T) {
	cases := []struct{ rank, want int }{
		{1, 0}, {10, 0}, {11, 1}, {100, 1}, {101, 2},
		{1000, 2}, {5000, 3}, {99999, 4}, {1000000, 5}, {2000000, 5},
	}
	for _, c := range cases {
		if got := RankBucket(c.rank); got != c.want {
			t.Errorf("RankBucket(%d) = %d, want %d", c.rank, got, c.want)
		}
	}
	if len(BucketLabels) != 6 {
		t.Fatal("bucket labels")
	}
}

func TestAdoptionDeterministic(t *testing.T) {
	tl := DefaultTimeline()
	a := NewAdoption(7, tl)
	for s := SiteID(0); s < 100; s++ {
		t1, ok1 := a.Adopts(s, int(s)+1)
		t2, ok2 := a.Adopts(s, int(s)+1)
		if ok1 != ok2 || !t1.Equal(t2) {
			t.Fatalf("non-deterministic adoption for site %d", s)
		}
	}
}

func TestAdoptionRankDependence(t *testing.T) {
	tl := DefaultTimeline()
	a := NewAdoption(11, tl)
	adoptFrac := func(rank int, n int) float64 {
		hits := 0
		for s := 0; s < n; s++ {
			if _, ok := a.Adopts(SiteID(s*131+rank), rank); ok {
				hits++
			}
		}
		return float64(hits) / float64(n)
	}
	top := adoptFrac(5, 20000)
	tail := adoptFrac(900000, 20000)
	if top <= tail {
		t.Fatalf("adoption not rank-dependent: top %v tail %v", top, tail)
	}
	if top < 0.07 || top > 0.13 {
		t.Fatalf("top-rank adoption %v far from 10%%", top)
	}
	if tail < 0.006 || tail > 0.017 {
		t.Fatalf("tail adoption %v far from 1.1%%", tail)
	}
}

func TestAdoptionTimelineJumps(t *testing.T) {
	tl := DefaultTimeline()
	a := NewAdoption(13, tl)
	n := 200000
	frac := func(at time.Time) float64 {
		hits := 0
		for s := 0; s < n; s++ {
			if a.IsV6At(SiteID(s), 500000, at) {
				hits++
			}
		}
		return float64(hits) / float64(n)
	}
	before := frac(tl.Start)
	afterIANA := frac(tl.IANA.Add(24 * time.Hour))
	beforeV6Day := frac(tl.V6Day.Add(-24 * time.Hour))
	afterV6Day := frac(tl.V6Day.Add(24 * time.Hour))
	end := frac(tl.End)
	if !(before < afterIANA && afterIANA <= beforeV6Day && beforeV6Day < afterV6Day && afterV6Day <= end) {
		t.Fatalf("series not increasing with jumps: %v %v %v %v %v",
			before, afterIANA, beforeV6Day, afterV6Day, end)
	}
	// World IPv6 Day is the dominant jump (Fig 1).
	ianaJump := afterIANA - before
	v6dayJump := afterV6Day - beforeV6Day
	if v6dayJump <= ianaJump {
		t.Fatalf("V6Day jump %v not larger than IANA jump %v", v6dayJump, ianaJump)
	}
}

func TestReachabilitySeriesMonotone(t *testing.T) {
	tl := DefaultTimeline()
	a := NewAdoption(17, tl)
	a.RankScale = 50 // 20k list stands in for the top 1M
	m := newModel(t, 20000, 17)
	ranked := m.Ranked()
	var dates []time.Time
	for d := tl.Start; !d.After(tl.End); d = d.Add(14 * 24 * time.Hour) {
		dates = append(dates, d)
	}
	series := a.ReachabilitySeries(ranked, m.FirstSeenRank, dates)
	if len(series) != len(dates) {
		t.Fatalf("series length %d", len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1] {
			t.Fatalf("reachability decreased at %d: %v -> %v", i, series[i-1], series[i])
		}
	}
	last := series[len(series)-1]
	if last < 0.005 || last > 0.03 {
		t.Fatalf("final reachability %v far from ~1%%", last)
	}
}

func TestReachabilityByBucketDecreasing(t *testing.T) {
	tl := DefaultTimeline()
	a := NewAdoption(23, tl)
	m := newModel(t, 100000, 23)
	got := a.ReachabilityByBucket(m.Ranked(), m.FirstSeenRank, tl.End)
	// Broadly decreasing: first bucket noisy at n=10, so compare
	// bucket 1 (Top 100) against the last.
	if got[1] <= got[5] {
		t.Fatalf("rank reachability not decreasing: %v", got)
	}
	for i, v := range got {
		if v < 0 || v > 1 {
			t.Fatalf("bucket %d fraction %v", i, v)
		}
	}
}

func TestReachabilitySeriesEmpty(t *testing.T) {
	tl := DefaultTimeline()
	a := NewAdoption(1, tl)
	out := a.ReachabilitySeries(nil, func(SiteID) int { return 1 }, []time.Time{tl.Start})
	if len(out) != 1 || out[0] != 0 {
		t.Fatalf("empty list series = %v", out)
	}
}
