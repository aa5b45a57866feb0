package websim

import (
	"sync"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

func newCatalog(t *testing.T, nAS int, seed int64) *Catalog {
	t.Helper()
	g, err := topo.Generate(topo.DefaultGenConfig(nAS, seed))
	if err != nil {
		t.Fatal(err)
	}
	ad := alexa.NewAdoption(seed, alexa.DefaultTimeline())
	c, err := NewCatalog(g, ad, DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSiteDeterministic(t *testing.T) {
	c := newCatalog(t, 500, 1)
	a := c.Site(42, 100)
	b := c.Site(42, 100)
	if a != b {
		t.Fatal("cache returned distinct pointers")
	}
	c2 := newCatalog(t, 500, 1)
	d := c2.Site(42, 100)
	if a.V4AS != d.V4AS || a.V6AS != d.V6AS || a.PageV4 != d.PageV4 || a.SrvV6 != d.SrvV6 {
		t.Fatal("rebuilt catalogue produced a different site")
	}
}

func TestSiteHostingInvariants(t *testing.T) {
	c := newCatalog(t, 800, 2)
	g := c.Graph()
	for id := alexa.SiteID(0); id < 3000; id++ {
		s := c.Site(id, int(id)+1)
		if s.V4AS < 0 || s.V4AS >= g.N() {
			t.Fatalf("site %d v4 AS %d out of range", id, s.V4AS)
		}
		if g.AS(s.V4AS).Tier != topo.Stub {
			t.Fatalf("site %d hosted on non-stub AS", id)
		}
		if s.CDN && !g.AS(s.V4AS).CDN {
			t.Fatalf("CDN site %d on non-CDN AS", id)
		}
		if s.V6AS >= 0 {
			if !g.AS(s.V6AS).V6 {
				t.Fatalf("site %d v6-hosted on non-v6 AS %d", id, s.V6AS)
			}
			if s.AdoptTime.IsZero() {
				t.Fatalf("site %d has V6AS but zero adopt time", id)
			}
			if s.CDN && s.V6AS == s.V4AS {
				t.Fatalf("CDN site %d has same-AS v6: CDNs are v4-only", id)
			}
		}
	}
}

func TestDLClassification(t *testing.T) {
	c := newCatalog(t, 800, 3)
	dl, sl := 0, 0
	for id := alexa.SiteID(0); id < 30000; id++ {
		s := c.Site(id, 500) // mid-rank: decent adoption odds
		if s.V6AS < 0 {
			continue
		}
		if s.DL() {
			dl++
		} else {
			sl++
		}
	}
	if dl == 0 || sl == 0 {
		t.Fatalf("degenerate DL/SL split: dl=%d sl=%d", dl, sl)
	}
	// DL is a minority but a visible one (paper: ~10-20% of duals).
	frac := float64(dl) / float64(dl+sl)
	if frac < 0.05 || frac > 0.6 {
		t.Fatalf("DL fraction %v implausible", frac)
	}
}

func TestPageIdentityRule(t *testing.T) {
	c := newCatalog(t, 500, 4)
	same, diff := 0, 0
	for id := alexa.SiteID(0); id < 30000; id++ {
		s := c.Site(id, 200)
		if s.V6AS < 0 {
			continue
		}
		if s.SameContent(0.06) {
			same++
		} else {
			diff++
		}
	}
	if same == 0 || diff == 0 {
		t.Fatalf("degenerate content split: same=%d diff=%d", same, diff)
	}
	fracDiff := float64(diff) / float64(same+diff)
	if fracDiff > 0.10 {
		t.Fatalf("different-content fraction %v too high", fracDiff)
	}
}

func TestServerQuality(t *testing.T) {
	c := newCatalog(t, 800, 5)
	bad, good := 0, 0
	for id := alexa.SiteID(0); id < 40000; id++ {
		s := c.Site(id, 100)
		if s.V6AS < 0 {
			continue
		}
		if s.BadV6Server {
			bad++
			if s.SrvV6 >= s.SrvV4*0.8 {
				t.Fatalf("bad server %d not slow: v6=%v v4=%v", id, s.SrvV6, s.SrvV4)
			}
		} else {
			good++
			if s.SrvV6 < s.SrvV4*0.90 {
				t.Fatalf("good server %d too slow: v6=%v v4=%v", id, s.SrvV6, s.SrvV4)
			}
		}
	}
	if bad == 0 || good == 0 {
		t.Fatalf("degenerate server split: bad=%d good=%d", bad, good)
	}
}

func TestBadServersClusterByAS(t *testing.T) {
	c := newCatalog(t, 800, 6)
	perAS := map[int][2]int{} // AS -> {bad, total}
	for id := alexa.SiteID(0); id < 60000; id++ {
		s := c.Site(id, 100)
		if s.V6AS < 0 {
			continue
		}
		e := perAS[s.V6AS]
		if s.BadV6Server {
			e[0]++
		}
		e[1]++
		perAS[s.V6AS] = e
	}
	highMix, lowMix := 0, 0
	for _, e := range perAS {
		if e[1] < 10 {
			continue
		}
		frac := float64(e[0]) / float64(e[1])
		if frac > 0.4 {
			highMix++
		}
		if frac < 0.2 {
			lowMix++
		}
	}
	if highMix == 0 || lowMix == 0 {
		t.Fatalf("no per-AS clustering: high=%d low=%d", highMix, lowMix)
	}
}

func TestV6DayParticipants(t *testing.T) {
	c := newCatalog(t, 800, 7)
	tl := c.Adoption().Timeline
	n, clean := 0, 0
	for id := alexa.SiteID(0); id < 50000; id++ {
		s := c.Site(id, 50)
		if !s.V6DayParticipant {
			continue
		}
		n++
		if !s.AdoptTime.Equal(tl.V6Day) {
			t.Fatalf("participant %d adopted at %v", id, s.AdoptTime)
		}
		if !s.BadV6Server {
			clean++
		}
	}
	if n == 0 {
		t.Fatal("no World IPv6 Day participants")
	}
	if float64(clean)/float64(n) < 0.85 {
		t.Fatalf("participants not mostly clean: %d/%d", clean, n)
	}
}

func TestDualAt(t *testing.T) {
	c := newCatalog(t, 500, 8)
	tl := c.Adoption().Timeline
	var s *Site
	for id := alexa.SiteID(0); id < 50000; id++ {
		x := c.Site(id, 50)
		if x.V6AS >= 0 && x.AdoptTime.Equal(tl.V6Day) {
			s = x
			break
		}
	}
	if s == nil {
		t.Skip("no V6Day adopter found")
	}
	if s.DualAt(tl.V6Day.Add(-time.Hour)) {
		t.Fatal("dual before adoption")
	}
	if !s.DualAt(tl.V6Day) {
		t.Fatal("not dual at adoption time")
	}
}

func TestPerfMultiplier(t *testing.T) {
	s := &Site{Events: []PerfEvent{
		{Kind: TransitionDown, Scope: ScopeBoth, AtFrac: 0.5, Magnitude: 0.5},
	}}
	if got := s.PerfMultiplier(topo.V4, 0.25); got != 1 {
		t.Fatalf("pre-transition multiplier %v", got)
	}
	if got := s.PerfMultiplier(topo.V4, 0.75); got != 0.5 {
		t.Fatalf("post-transition multiplier %v", got)
	}
	s2 := &Site{Events: []PerfEvent{
		{Kind: TrendUp, Scope: ScopeV6, Magnitude: 1.0},
	}}
	if got := s2.PerfMultiplier(topo.V4, 1); got != 1 {
		t.Fatalf("v4 affected by v6-scoped event: %v", got)
	}
	if got := s2.PerfMultiplier(topo.V6, 1); got != 2 {
		t.Fatalf("trend multiplier %v, want 2", got)
	}
	s3 := &Site{Events: []PerfEvent{
		{Kind: TrendDown, Scope: ScopeBoth, Magnitude: 1.2},
	}}
	if got := s3.PerfMultiplier(topo.V4, 1); got < 0.05 {
		t.Fatalf("trend-down multiplier %v below floor", got)
	}
}

func TestCatalogConcurrentAccess(t *testing.T) {
	c := newCatalog(t, 500, 9)
	var wg sync.WaitGroup
	ptrs := make([]*Site, 50)
	for w := 0; w < 50; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ptrs[w] = c.Site(777, 10)
		}(w)
	}
	wg.Wait()
	for _, p := range ptrs {
		if p != ptrs[0] {
			t.Fatal("concurrent callers got different instances")
		}
	}
	if c.CachedCount() == 0 {
		t.Fatal("cache empty")
	}
}

func TestConfigValidation(t *testing.T) {
	g, err := topo.Generate(topo.DefaultGenConfig(300, 1))
	if err != nil {
		t.Fatal(err)
	}
	ad := alexa.NewAdoption(1, alexa.DefaultTimeline())
	bad := DefaultConfig(1)
	bad.CDNFrac = 1.5
	if _, err := NewCatalog(g, ad, bad); err == nil {
		t.Fatal("bad CDNFrac accepted")
	}
	bad2 := DefaultConfig(1)
	bad2.PageMedian = 0
	if _, err := NewCatalog(g, ad, bad2); err == nil {
		t.Fatal("bad PageMedian accepted")
	}
}

// freshHosting recomputes a site's hosting summary from the
// deterministic draws alone, bypassing the Site cache and the memo.
func freshHosting(c *Catalog, id alexa.SiteID, firstRank int) Hosting {
	v4AS, v6AS, _, adoptTime, adopts := c.hosting(id, firstRank)
	h := Hosting{V4AS: v4AS, V6AS: v6AS}
	if adopts {
		h.AdoptUnix = adoptTime.UnixNano()
	}
	return h
}

// memoPages counts the hosting-memo pages allocated across both
// reserved tables.
func memoPages(c *Catalog) int {
	n := 0
	for _, t := range []*siteTable{&c.dense, &c.ext} {
		for i := range t.pages {
			if t.pages[i].Load() != nil {
				n++
			}
		}
	}
	return n
}

// TestHostingOfMemoMatchesHosting: HostingOf answers every id — dense,
// extended and overflow, adopting or not, materialized or not — with
// exactly the recomputed summary, on first and repeated calls and
// across a Reserve growth between them.
func TestHostingOfMemoMatchesHosting(t *testing.T) {
	c := newCatalog(t, 600, 21)
	const extBase = alexa.SiteID(1 << 40)
	c.Reserve(3*hostPageSize, extBase, hostPageSize+100)

	var ids []alexa.SiteID
	for i := alexa.SiteID(0); i < 4*hostPageSize; i += 7 {
		ids = append(ids, i) // dense, then past it (overflow until the growth)
	}
	for i := alexa.SiteID(0); i < 2*hostPageSize; i += 5 {
		ids = append(ids, extBase+i) // extended, then past it
	}
	for i := alexa.SiteID(0); i < 300; i++ {
		ids = append(ids, 1<<30+i) // overflow throughout
	}
	rank := func(id alexa.SiteID) int { return int(id%5000) + 1 }
	// A few materialized sites: HostingOf must read them as is.
	for _, id := range []alexa.SiteID{14, extBase + 10, 1<<30 + 3} {
		c.Site(id, rank(id))
	}

	single, adopters := 0, 0
	check := func(pass string) {
		t.Helper()
		for _, id := range ids {
			want := freshHosting(c, id, rank(id))
			if got := c.HostingOf(id, rank(id)); got != want {
				t.Fatalf("%s: HostingOf(%d) = %+v, want %+v", pass, id, got, want)
			}
			if pass == "first" {
				if want.V6AS < 0 {
					single++
				} else {
					adopters++
				}
			}
		}
	}
	check("first")
	if single == 0 || adopters == 0 {
		t.Fatalf("probe set has %d single-stack and %d adopting sites; need both", single, adopters)
	}
	pages := memoPages(c)
	if pages == 0 {
		t.Fatal("no memo page allocated for single-stack lookups")
	}
	check("repeat")
	if got := memoPages(c); got != pages {
		t.Fatalf("repeated lookups allocated pages: %d -> %d", pages, got)
	}
	c.Reserve(6*hostPageSize, extBase, 3*hostPageSize)
	if got := memoPages(c); got != pages {
		t.Fatalf("Reserve changed the memo: %d pages -> %d", pages, got)
	}
	check("after growth")
	check("after growth, repeat")
	if c.CachedCount() != 3 {
		t.Fatalf("CachedCount = %d, want the 3 explicitly materialized sites", c.CachedCount())
	}
}

// TestHostingOfAdoptersTakeNoMemo: adopting sites bypass the memo, so
// a lookup set of adopters alone (World IPv6 Day's participants)
// allocates no page; the first single-stack lookup allocates one.
func TestHostingOfAdoptersTakeNoMemo(t *testing.T) {
	c := newCatalog(t, 600, 22)
	c.Reserve(20*hostPageSize, 1<<40, 2*hostPageSize)
	var adopters []alexa.SiteID
	single := alexa.SiteID(-1)
	for id := alexa.SiteID(0); id < 20*hostPageSize; id++ {
		if freshHosting(c, id, 50).V6AS >= 0 {
			adopters = append(adopters, id)
		} else if single < 0 {
			single = id
		}
	}
	if len(adopters) < 10 || single < 0 {
		t.Fatalf("found %d adopters and single-stack id %d; widen the range", len(adopters), single)
	}
	for pass := 0; pass < 2; pass++ {
		for _, id := range adopters {
			if got, want := c.HostingOf(id, 50), freshHosting(c, id, 50); got != want {
				t.Fatalf("HostingOf(%d) = %+v, want %+v", id, got, want)
			}
		}
	}
	if n := memoPages(c); n != 0 {
		t.Fatalf("adopter-only lookups allocated %d memo pages", n)
	}
	c.HostingOf(single, 50)
	if n := memoPages(c); n != 1 {
		t.Fatalf("one single-stack lookup allocated %d memo pages, want 1", n)
	}
}
