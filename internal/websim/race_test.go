package websim

import (
	"fmt"
	"sync"
	"testing"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// TestCatalogConcurrentSiteRace hammers the lock-free site tables
// under -race: many goroutines materialize overlapping id ranges in
// the dense table, the extended table, and the overflow map. Every
// caller must observe one shared *Site per id.
func TestCatalogConcurrentSiteRace(t *testing.T) {
	g, err := topo.Generate(topo.DefaultGenConfig(150, 3))
	if err != nil {
		t.Fatal(err)
	}
	ad := alexa.NewAdoption(3, alexa.DefaultTimeline())
	c, err := NewCatalog(g, ad, DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	const extBase = alexa.SiteID(1 << 40)
	c.Reserve(1000, extBase, 200)

	ids := make([]alexa.SiteID, 0, 1500)
	for i := alexa.SiteID(0); i < 1000; i++ {
		ids = append(ids, i) // dense table
	}
	for i := alexa.SiteID(0); i < 200; i++ {
		ids = append(ids, extBase+i) // extended table
	}
	for i := alexa.SiteID(0); i < 100; i++ {
		ids = append(ids, 5_000_000+i) // overflow map
	}

	const workers = 8
	got := make([][]*Site, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]*Site, len(ids))
			for k, id := range ids {
				out[k] = c.Site(id, int(id%100000)+1)
			}
			got[w] = out
		}(w)
	}
	wg.Wait()

	for w := 1; w < workers; w++ {
		for k := range ids {
			if got[w][k] != got[0][k] {
				t.Fatalf("worker %d saw a different *Site for id %d", w, ids[k])
			}
		}
	}
	if n := c.CachedCount(); n != len(ids) {
		t.Fatalf("CachedCount = %d, want %d", n, len(ids))
	}
}

// TestReserveGrowthKeepsSites checks that growing the dense table
// between rounds preserves already-materialized pointers.
func TestReserveGrowthKeepsSites(t *testing.T) {
	g, err := topo.Generate(topo.DefaultGenConfig(150, 4))
	if err != nil {
		t.Fatal(err)
	}
	ad := alexa.NewAdoption(4, alexa.DefaultTimeline())
	c, err := NewCatalog(g, ad, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	c.Reserve(100, 0, 0)
	before := make([]*Site, 100)
	for i := range before {
		before[i] = c.Site(alexa.SiteID(i), i+1)
	}
	c.Reserve(10000, 0, 0)
	for i := range before {
		if c.Site(alexa.SiteID(i), i+1) != before[i] {
			t.Fatalf("site %d pointer changed across Reserve", i)
		}
	}
}

// TestHostingOfMemoConcurrentRace hammers the hosting memo under
// -race: goroutines look up overlapping ids in the dense and extended
// tables and the overflow range, in different orders, racing to
// allocate the same pages and fill the same cells. Every answer must
// equal the recomputed summary.
func TestHostingOfMemoConcurrentRace(t *testing.T) {
	g, err := topo.Generate(topo.DefaultGenConfig(150, 5))
	if err != nil {
		t.Fatal(err)
	}
	ad := alexa.NewAdoption(5, alexa.DefaultTimeline())
	c, err := NewCatalog(g, ad, DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	const extBase = alexa.SiteID(1 << 40)
	c.Reserve(3*hostPageSize, extBase, hostPageSize)

	var ids []alexa.SiteID
	for i := alexa.SiteID(0); i < 3*hostPageSize; i += 3 {
		ids = append(ids, i)
	}
	for i := alexa.SiteID(0); i < hostPageSize; i += 3 {
		ids = append(ids, extBase+i)
	}
	for i := alexa.SiteID(0); i < 100; i++ {
		ids = append(ids, 5_000_000+i)
	}
	rank := func(id alexa.SiteID) int { return int(id%1000) + 1 }
	want := make([]Hosting, len(ids))
	for k, id := range ids {
		want[k] = freshHosting(c, id, rank(id))
	}

	const workers = 8
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				for n := range ids {
					k := n
					if w%2 == 1 {
						k = len(ids) - 1 - n // half the workers walk backwards
					}
					if got := c.HostingOf(ids[k], rank(ids[k])); got != want[k] {
						errs <- fmt.Sprintf("worker %d: HostingOf(%d) = %+v, want %+v", w, ids[k], got, want[k])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
