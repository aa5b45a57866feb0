package measure

import (
	"slices"
	"testing"

	"v6web/internal/alexa"
	"v6web/internal/netsim"
	"v6web/internal/store"
	"v6web/internal/topo"
	"v6web/internal/websim"
)

type simEnv struct {
	cat   *websim.Catalog
	model *netsim.Model
	fetch *SimFetcher
	tl    alexa.Timeline
}

func newSimEnv(t *testing.T, nAS int, seed int64) *simEnv {
	t.Helper()
	g, err := topo.Generate(topo.DefaultGenConfig(nAS, seed))
	if err != nil {
		t.Fatal(err)
	}
	tl := alexa.DefaultTimeline()
	ad := alexa.NewAdoption(seed, tl)
	cat, err := websim.NewCatalog(g, ad, websim.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	model, err := netsim.New(g, netsim.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	// Vantage: a multihomed v6-capable tier2/stub (≥2 providers, so
	// BGP path changes have an alternative to switch to), not a
	// broker or CDN.
	vantage := -1
	for i := 0; i < g.N(); i++ {
		a := g.AS(i)
		if !a.V6 || a.CDN || a.TunnelBroker || a.Tier == topo.Tier1 {
			continue
		}
		providers := 0
		for _, n := range g.RawNeighbors(i) {
			if n.Rel == topo.RelProvider && !n.Tunnel {
				providers++
			}
		}
		if providers >= 2 {
			vantage = i
			break
		}
	}
	if vantage < 0 {
		t.Fatal("no multihomed v6 vantage AS")
	}
	fetch, err := NewSimFetcher(vantage, cat, model, 0.08, 30, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &simEnv{cat: cat, model: model, fetch: fetch, tl: tl}
}

// dualRefs returns n refs of sites that are dual-stack by the study
// end with identical content.
func (e *simEnv) dualRefs(n int) []SiteRef {
	var out []SiteRef
	for id := alexa.SiteID(0); len(out) < n && id < 200000; id++ {
		s := e.cat.Site(id, 100)
		if s.V6AS >= 0 && s.SameContent(0.06) {
			out = append(out, SiteRef{ID: id, FirstRank: 100})
		}
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig("penn", 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Vantage = "" },
		func(c *Config) { c.Workers = 0 },
		func(c *Config) { c.IdentityFrac = 0 },
		func(c *Config) { c.IdentityFrac = 1 },
		func(c *Config) { c.MaxDownloads = 1 },
	}
	for i, mut := range bad {
		c := DefaultConfig("penn", 1)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestRunRoundRecordsSamples(t *testing.T) {
	e := newSimEnv(t, 600, 1)
	db := store.NewDB()
	mon, err := NewMonitor(DefaultConfig("penn", 1), e.fetch, db)
	if err != nil {
		t.Fatal(err)
	}
	refs := e.dualRefs(30)
	if len(refs) < 10 {
		t.Fatalf("only %d dual refs", len(refs))
	}
	date := e.tl.End // everyone adopted by now
	st, _ := mon.RunRound(0, date, 1.0, refs)
	if st.Sites != len(refs) {
		t.Fatalf("stats sites %d", st.Sites)
	}
	if st.Dual < len(refs)*8/10 {
		t.Fatalf("dual %d of %d", st.Dual, len(refs))
	}
	if st.Measured == 0 {
		t.Fatal("nothing measured")
	}
	// Samples exist for both families with plausible speeds.
	found := 0
	snap := db.Freeze()
	for _, ref := range refs {
		s4 := snap.Series(nil, "penn", ref.ID, topo.V4)
		s6 := snap.Series(nil, "penn", ref.ID, topo.V6)
		if len(s4) == 1 && len(s6) == 1 {
			found++
			if s4[0].MeanSpeed <= 0 || s4[0].MeanSpeed > 1000 {
				t.Fatalf("v4 speed %v", s4[0].MeanSpeed)
			}
			if s4[0].Downloads < 3 {
				t.Fatalf("only %d downloads", s4[0].Downloads)
			}
			if !s4[0].CIOK {
				t.Fatalf("CI not satisfied with default noise")
			}
		}
	}
	if found == 0 {
		t.Fatal("no dual samples stored")
	}
}

func TestRunRoundBeforeAdoption(t *testing.T) {
	e := newSimEnv(t, 600, 2)
	db := store.NewDB()
	mon, _ := NewMonitor(DefaultConfig("penn", 2), e.fetch, db)
	refs := e.dualRefs(10)
	// Far before the study: nothing has AAAA except pre-study
	// adopters; use a date before even those.
	date := e.tl.Start.AddDate(-5, 0, 0)
	st, _ := mon.RunRound(0, date, 0, refs)
	if st.Dual != 0 {
		t.Fatalf("dual %d before adoption era", st.Dual)
	}
	snap := db.Freeze()
	for _, ref := range refs {
		if len(snap.Series(nil, "penn", ref.ID, topo.V6)) != 0 {
			t.Fatal("v6 samples before adoption")
		}
	}
}

func TestRunRoundDeterministic(t *testing.T) {
	e := newSimEnv(t, 500, 3)
	refs := e.dualRefs(15)
	run := func() *store.DB {
		db := store.NewDB()
		mon, _ := NewMonitor(DefaultConfig("penn", 3), e.fetch, db)
		mon.RunRound(0, e.tl.End, 1.0, refs)
		return db
	}
	a, b := run().Freeze(), run().Freeze()
	for _, ref := range refs {
		sa := a.Series(nil, "penn", ref.ID, topo.V4)
		sb := b.Series(nil, "penn", ref.ID, topo.V4)
		if len(sa) != len(sb) {
			t.Fatal("sample counts differ across identical runs")
		}
		for i := range sa {
			if sa[i].MeanSpeed != sb[i].MeanSpeed || sa[i].Downloads != sb[i].Downloads {
				t.Fatalf("non-deterministic round: %+v vs %+v", sa[i], sb[i])
			}
		}
	}
}

// TestPathsRecorded checks a round's destination ASes: the origins of
// its dual-stack sites, each once, ascending. The caller reads the
// post-round path toward each from the fetcher, and every such path
// runs from the vantage to the destination.
func TestPathsRecorded(t *testing.T) {
	e := newSimEnv(t, 600, 4)
	mon, _ := NewMonitor(DefaultConfig("penn", 4), e.fetch, store.NewDB())
	// Dual-stack sites plus sites that adopt after the round date: only
	// the former may contribute destinations.
	refs := e.dualRefs(25)
	date := e.tl.Start.AddDate(0, 3, 0)
	want := map[int]bool{}
	dual := 0
	for _, ref := range refs {
		hasA, hasAAAA, v4, v6, _ := e.fetch.Resolve(ref, date)
		if !hasA || !hasAAAA {
			continue
		}
		dual++
		for _, as := range []int{v4, v6} {
			if as >= 0 {
				want[as] = true
			}
		}
	}
	if dual == 0 || dual == len(refs) {
		t.Fatalf("%d of %d sites dual-stack at the round date, want some but not all", dual, len(refs))
	}
	st, dsts := mon.RunRound(0, date, 0.5, refs)
	if st.Dual != dual {
		t.Fatalf("round counts %d dual-stack sites, want %d", st.Dual, dual)
	}
	wantList := make([]int, 0, len(want))
	for as := range want {
		wantList = append(wantList, as)
	}
	slices.Sort(wantList)
	if !slices.Equal(dsts, wantList) {
		t.Fatalf("destinations %v, want the dual-stack origins %v", dsts, wantList)
	}
	for _, dst := range dsts {
		for _, fam := range famBoth {
			p := e.fetch.PathTo(dst, fam, 0)
			if p != nil && (p[0] != e.fetch.VantageAS || p[len(p)-1] != dst) {
				t.Fatalf("malformed %v path %v to %d", fam, p, dst)
			}
		}
	}
}

// TestPathChangesHappen reads the fetcher's paths toward each round's
// destinations, as the caller records them, over 30 rounds: with
// PathChangeFrac 0.08 some destination must reroute.
func TestPathChangesHappen(t *testing.T) {
	e := newSimEnv(t, 800, 5)
	mon, _ := NewMonitor(DefaultConfig("penn", 5), e.fetch, store.NewDB())
	refs := e.dualRefs(40)
	type famDst struct {
		fam topo.Family
		dst int
	}
	last := map[famDst][]int{}
	changed := 0
	for round := 0; round < 30; round++ {
		_, dsts := mon.RunRound(round, e.tl.End, 1.0, refs)
		if len(dsts) == 0 {
			t.Fatalf("round %d: no destinations", round)
		}
		for _, dst := range dsts {
			for _, fam := range famBoth {
				p := e.fetch.PathTo(dst, fam, round)
				k := famDst{fam, dst}
				if prev, ok := last[k]; ok && !slices.Equal(prev, p) {
					changed++
				}
				last[k] = p
			}
		}
	}
	if changed == 0 {
		t.Fatal("no path change observed over 30 rounds with PathChangeFrac=0.08")
	}
}

func TestSimFetcherValidation(t *testing.T) {
	e := newSimEnv(t, 300, 6)
	if _, err := NewSimFetcher(0, e.cat, e.model, -0.1, 10, 1); err == nil {
		t.Fatal("negative PathChangeFrac accepted")
	}
	if _, err := NewSimFetcher(0, e.cat, e.model, 0.1, 0, 1); err == nil {
		t.Fatal("zero rounds accepted")
	}
	if _, err := NewSimFetcher(-1, e.cat, e.model, 0.1, 10, 1); err == nil {
		t.Fatal("bad vantage accepted")
	}
}

func TestMonitorNilArgs(t *testing.T) {
	if _, err := NewMonitor(DefaultConfig("penn", 1), nil, store.NewDB()); err == nil {
		t.Fatal("nil fetcher accepted")
	}
	e := newSimEnv(t, 300, 7)
	if _, err := NewMonitor(DefaultConfig("penn", 1), e.fetch, nil); err == nil {
		t.Fatal("nil db accepted")
	}
}
