package measure

import (
	"testing"
	"time"

	"v6web/internal/alexa"
)

// TestLiteResolveMatchesLPM pins the equivalence the single-stack
// fast path relies on: for any site, the hosting summary's V4AS
// equals the origin AS the slow path derives by longest-prefix
// matching the site's address against the plan — every AS announces
// one disjoint prefix per family and sites get addresses inside their
// hosting AS's prefix, so the LPM can only resolve back.
func TestLiteResolveMatchesLPM(t *testing.T) {
	e := newSimEnv(t, 400, 11)
	f := e.fetch
	for id := alexa.SiteID(0); id < 3000; id++ {
		h := f.Cat.HostingOf(id, int(id%5000)+1)
		if got := f.plan.OriginV4(f.plan.SiteV4(h.V4AS, int64(id))); got != h.V4AS {
			t.Fatalf("site %d: LPM v4 origin %d != hosting AS %d", id, got, h.V4AS)
		}
		if h.V6AS >= 0 {
			addr := f.plan.SiteV6(h.V6AS, int64(id))
			if addr == nil {
				t.Fatalf("site %d: v6 hosting AS %d has no v6 prefix", id, h.V6AS)
			}
			if got := f.plan.OriginV6(addr); got != h.V6AS {
				t.Fatalf("site %d: LPM v6 origin %d != hosting AS %d", id, got, h.V6AS)
			}
		}
	}
}

// TestResolveLiteEquivalence compares Resolve — which answers
// non-dual sites from the allocation-free hosting summary —
// against the reference slow path (materialize the Site, LPM both
// addresses, gate v6 on dual-stack status) at dates before, during,
// and after the adoption window.
func TestResolveLiteEquivalence(t *testing.T) {
	e := newSimEnv(t, 400, 7)
	f := e.fetch
	dates := []time.Time{
		e.tl.Start.AddDate(0, 0, -30),
		e.tl.IANA,
		e.tl.V6Day,
		e.tl.End,
	}
	for id := alexa.SiteID(0); id < 1500; id++ {
		rank := int(id%9000) + 1
		for _, date := range dates {
			gotA, gotAAAA, gotV4, gotV6, err := f.Resolve(SiteRef{ID: id, FirstRank: rank}, date)
			if err != nil {
				t.Fatal(err)
			}
			// Reference: the pre-fast-path implementation.
			site := f.Cat.Site(id, rank)
			dual := site.DualAtUnix(date.UnixNano())
			v4, v6Full := f.origins(site, int64(id))
			if !dual {
				v6Full = -1
			}
			if gotA != true || gotAAAA != dual || gotV4 != v4 || gotV6 != v6Full {
				t.Fatalf("site %d at %v: Resolve = (%v %v %d %d), reference = (true %v %d %d)",
					id, date, gotA, gotAAAA, gotV4, gotV6, dual, v4, v6Full)
			}
		}
	}
}

// TestHostingOfDoesNotMaterialize: resolving a never-adopting site
// must not grow the catalogue cache; dual sites still materialize on
// the download path.
func TestHostingOfDoesNotMaterialize(t *testing.T) {
	e := newSimEnv(t, 400, 13)
	before := e.cat.CachedCount()
	probes := 0
	for id := alexa.SiteID(0); id < 2000; id++ {
		h := e.cat.HostingOf(id, 500000)
		if h.V6AS < 0 {
			probes++
		}
	}
	if probes == 0 {
		t.Fatal("no single-stack sites probed; widen the range")
	}
	if got := e.cat.CachedCount(); got != before {
		t.Fatalf("HostingOf materialized %d sites", got-before)
	}
}
