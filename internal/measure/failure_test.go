package measure

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/store"
	"v6web/internal/topo"
)

// scriptFetcher is a controllable Fetcher for failure injection.
type scriptFetcher struct {
	hasA, hasAAAA bool
	resolveErr    error

	pageV4, pageV6 int
	fetchErrV4     error
	fetchErrV6     error
	// failFrom/failTo make Fetch calls in that 1-based inclusive
	// range fail (0,0 disables). calls is atomic: a round's workers
	// share the fetcher.
	failFrom, failTo int64
	calls            atomic.Int64
	// noisy makes download times wildly variable so the CI stop rule
	// cannot be satisfied.
	noisy bool
}

func (f *scriptFetcher) Resolve(SiteRef, time.Time) (bool, bool, int, int, error) {
	return f.hasA, f.hasAAAA, -1, -1, f.resolveErr
}

func (f *scriptFetcher) Prepare(ref SiteRef, fam topo.Family, _ int, _ float64) (Download, error) {
	page := f.pageV4
	if fam == topo.V6 {
		page = f.pageV6
	}
	return Download{Ref: ref, Fam: fam, PageBytes: page}, nil
}

func (f *scriptFetcher) Fetch(d Download, rng *rand.Rand) (FetchResult, error) {
	n := f.calls.Add(1)
	if f.failFrom > 0 && n >= f.failFrom && n <= f.failTo {
		return FetchResult{}, errors.New("transient failure")
	}
	if d.Fam == topo.V4 && f.fetchErrV4 != nil {
		return FetchResult{}, f.fetchErrV4
	}
	if d.Fam == topo.V6 && f.fetchErrV6 != nil {
		return FetchResult{}, f.fetchErrV6
	}
	elapsed := 500 * time.Millisecond
	if f.noisy {
		elapsed = time.Duration(1+rng.Intn(5000)) * time.Millisecond
	}
	return FetchResult{PageBytes: d.PageBytes, Elapsed: elapsed}, nil
}

func newTestMonitor(t *testing.T, f Fetcher) (*Monitor, *store.DB) {
	t.Helper()
	db := store.NewDB()
	cfg := DefaultConfig("test", 1)
	cfg.Workers = 2
	cfg.MaxDownloads = 8
	mon, err := NewMonitor(cfg, f, db)
	if err != nil {
		t.Fatal(err)
	}
	return mon, db
}

func TestResolveErrorCountsAsFetchFail(t *testing.T) {
	f := &scriptFetcher{resolveErr: errors.New("dns down")}
	mon, db := newTestMonitor(t, f)
	st, _ := mon.RunRound(0, time.Now(), 0, []SiteRef{{ID: 1}})
	if st.FetchFails != 1 || st.Dual != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(db.DNS("test")) != 0 {
		t.Fatal("DNS row recorded despite resolve error")
	}
}

func TestV4OnlySiteSkipsDownloadPhase(t *testing.T) {
	f := &scriptFetcher{hasA: true, hasAAAA: false, pageV4: 1000}
	mon, db := newTestMonitor(t, f)
	st, _ := mon.RunRound(0, time.Now(), 0, []SiteRef{{ID: 1}})
	if st.Dual != 0 || st.Identical != 0 {
		t.Fatalf("stats: %+v", st)
	}
	rows := db.DNS("test")
	if len(rows) != 1 || !rows[0].HasA || rows[0].HasAAAA {
		t.Fatalf("dns rows: %+v", rows)
	}
	if n := f.calls.Load(); n != 0 {
		t.Fatalf("download phase ran %d fetches for a v4-only site", n)
	}
}

func TestDifferentContentStopsAtIdentityCheck(t *testing.T) {
	f := &scriptFetcher{hasA: true, hasAAAA: true, pageV4: 10000, pageV6: 20000}
	mon, db := newTestMonitor(t, f)
	st, _ := mon.RunRound(0, time.Now(), 0, []SiteRef{{ID: 1}})
	if st.Dual != 1 || st.Identical != 0 || st.Measured != 0 {
		t.Fatalf("stats: %+v", st)
	}
	rows := db.DNS("test")
	if len(rows) != 1 || rows[0].Identical {
		t.Fatalf("identity flag: %+v", rows)
	}
	if len(db.Freeze().Series(nil, "test", 1, topo.V4)) != 0 {
		t.Fatal("samples recorded for non-identical site")
	}
}

func TestIdentityWithinThresholdPasses(t *testing.T) {
	// 5% size difference is within the 6% threshold.
	f := &scriptFetcher{hasA: true, hasAAAA: true, pageV4: 10000, pageV6: 10500}
	mon, db := newTestMonitor(t, f)
	st, _ := mon.RunRound(0, time.Now(), 0, []SiteRef{{ID: 1}})
	if st.Identical != 1 || st.Measured != 1 {
		t.Fatalf("stats: %+v", st)
	}
	s4 := db.Freeze().Series(nil, "test", 1, topo.V4)
	if len(s4) != 1 || !s4[0].CIOK {
		t.Fatalf("v4 sample: %+v", s4)
	}
}

func TestV6FetchErrorFailsSite(t *testing.T) {
	f := &scriptFetcher{hasA: true, hasAAAA: true, pageV4: 1000, pageV6: 1000,
		fetchErrV6: errors.New("v6 unreachable")}
	mon, db := newTestMonitor(t, f)
	st, _ := mon.RunRound(0, time.Now(), 0, []SiteRef{{ID: 1}})
	if st.FetchFails != 1 || st.Identical != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(db.Freeze().Series(nil, "test", 1, topo.V4)) != 0 {
		t.Fatal("partial samples recorded")
	}
}

func TestTransientFailuresDoNotAbortConvergence(t *testing.T) {
	// Calls 1-2 are the identity check; calls 3-4 (the first two
	// convergence downloads) fail transiently. The stop rule still
	// converges on the remaining budget.
	f := &scriptFetcher{hasA: true, hasAAAA: true, pageV4: 1000, pageV6: 1000, failFrom: 3, failTo: 4}
	mon, db := newTestMonitor(t, f)
	st, _ := mon.RunRound(0, time.Now(), 0, []SiteRef{{ID: 1}})
	if st.Measured != 1 {
		t.Fatalf("stats: %+v", st)
	}
	s6 := db.Freeze().Series(nil, "test", 1, topo.V6)
	if len(s6) != 1 || !s6[0].CIOK {
		t.Fatalf("v6 sample: %+v", s6)
	}
}

func TestIdentityPhaseFailureCountsAsFetchFail(t *testing.T) {
	// Failing the identity-check downloads fails the site's round.
	f := &scriptFetcher{hasA: true, hasAAAA: true, pageV4: 1000, pageV6: 1000, failFrom: 1, failTo: 2}
	mon, db := newTestMonitor(t, f)
	st, _ := mon.RunRound(0, time.Now(), 0, []SiteRef{{ID: 1}})
	if st.FetchFails != 1 || st.Measured != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(db.Freeze().Series(nil, "test", 1, topo.V4)) != 0 {
		t.Fatal("samples recorded despite identity failure")
	}
}

func TestNoisySiteFailsWithinRoundCI(t *testing.T) {
	f := &scriptFetcher{hasA: true, hasAAAA: true, pageV4: 1000, pageV6: 1000, noisy: true}
	mon, db := newTestMonitor(t, f)
	st, _ := mon.RunRound(0, time.Now(), 0, []SiteRef{{ID: 1}})
	if st.Measured != 0 {
		t.Fatalf("noisy site converged: %+v", st)
	}
	s4 := db.Freeze().Series(nil, "test", 1, topo.V4)
	if len(s4) != 1 {
		t.Fatalf("v4 samples: %d", len(s4))
	}
	if s4[0].CIOK {
		t.Fatal("CIOK set despite noise")
	}
	if s4[0].Downloads != 8 {
		t.Fatalf("budget not exhausted: %d downloads", s4[0].Downloads)
	}
}

func TestRoundStatsSiteCounts(t *testing.T) {
	f := &scriptFetcher{hasA: true, hasAAAA: true, pageV4: 1000, pageV6: 1000}
	mon, _ := newTestMonitor(t, f)
	refs := []SiteRef{{ID: 1}, {ID: 2}, {ID: 3}}
	st, _ := mon.RunRound(0, time.Now(), 0, refs)
	if st.Sites != 3 || st.Dual != 3 || st.Measured != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

// minimalFetcher implements only the Fetcher interface and knows no
// origins: the monitor must degrade gracefully.
type minimalFetcher struct{}

func (minimalFetcher) Resolve(SiteRef, time.Time) (bool, bool, int, int, error) {
	return true, true, -1, -1, nil
}

func (minimalFetcher) Prepare(ref SiteRef, fam topo.Family, _ int, _ float64) (Download, error) {
	return Download{Ref: ref, Fam: fam, PageBytes: 1000}, nil
}

func (minimalFetcher) Fetch(d Download, _ *rand.Rand) (FetchResult, error) {
	return FetchResult{PageBytes: d.PageBytes, Elapsed: 200 * time.Millisecond}, nil
}

func TestMonitorWithoutOptionalInterfaces(t *testing.T) {
	db := store.NewDB()
	cfg := DefaultConfig("min", 1)
	cfg.Workers = 2
	mon, err := NewMonitor(cfg, minimalFetcher{}, db)
	if err != nil {
		t.Fatal(err)
	}
	st, dsts := mon.RunRound(0, time.Now(), 0, []SiteRef{{ID: 1}, {ID: 2}})
	if st.Measured != 2 {
		t.Fatalf("stats: %+v", st)
	}
	// Origins unknown: no destinations to read paths toward.
	row, ok := db.Site(1)
	if !ok || row.V4AS != -1 || row.V6AS != -1 {
		t.Fatalf("site row: %+v", row)
	}
	if len(dsts) != 0 {
		t.Fatalf("destinations %v without known origins", dsts)
	}
}

func TestOriginsViaLPM(t *testing.T) {
	// SimFetcher's Resolve attributes origins address -> LPM -> AS,
	// and they must agree with the catalogue's ground truth.
	e := newSimEnv(t, 500, 31)
	tl := e.tl
	for id := int64(0); id < 2000; id++ {
		ref := SiteRef{ID: alexa.SiteID(id), FirstRank: 50}
		site := e.cat.Site(ref.ID, int(ref.FirstRank))
		_, _, v4, v6, err := e.fetch.Resolve(ref, tl.End)
		if err != nil {
			t.Fatal(err)
		}
		if v4 != site.V4AS {
			t.Fatalf("site %d: LPM v4 origin %d != %d", id, v4, site.V4AS)
		}
		if site.DualAt(tl.End) {
			if v6 != site.V6AS {
				t.Fatalf("site %d: LPM v6 origin %d != %d", id, v6, site.V6AS)
			}
		} else if v6 != -1 {
			t.Fatalf("site %d: v6 origin %d for non-dual site", id, v6)
		}
	}
}
