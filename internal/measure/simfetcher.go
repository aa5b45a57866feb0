package measure

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"v6web/internal/bgp"
	"v6web/internal/det"
	"v6web/internal/ipam"
	"v6web/internal/netsim"
	"v6web/internal/topo"
	"v6web/internal/websim"
)

// SimFetcher satisfies Fetcher over the synthetic substrates: DNS
// outcomes come from the adoption model, download times from netsim
// over BGP-computed AS paths. PathTo reports the path in effect at a
// round, from which core records post-round path snapshots.
//
// A fraction of (destination AS, family) pairs experience one BGP
// path change during the study: before the change the primary route
// is used, after it the path through the vantage's second-best first
// hop. When the two differ, sites in that AS see both a recorded path
// change and whatever performance shift the new path implies —
// Section 5.1's "in some of those cases, this transition was the
// result of a path change".
//
// Everything derivable at construction is precomputed so Prepare —
// run for each family of every dual-stack visit — does no route
// computation, no path walking, and no locking on the primary-route
// path: RIBs are built by the single-source fast path, per-path
// netsim characteristics and per-destination change rounds are
// tabulated up front, and only lazily-computed alternative paths take
// a mutex. Fetch, the innermost call of the campaign, only draws one
// download's noise around the round speed Prepare computed.
type SimFetcher struct {
	VantageAS int
	Cat       *websim.Catalog
	Model     *netsim.Model

	// PathChangeFrac is the probability a (destination AS, family)
	// pair reroutes once during the study.
	PathChangeFrac float64
	// TotalRounds positions change rounds; must be >= 1.
	TotalRounds int
	// Seed drives path-change scheduling.
	Seed int64

	ribs [2]*bgp.RIB // primary routes, indexed by family

	// Precomputed per destination, per family.
	primPerf    [2][]netsim.PathPerf // data-plane characteristics of the primary path
	changeAt    [2][]int32           // round the pair reroutes, -1 = never
	vantageQual float64              // netsim vantage quality, constant per fetcher

	// plan maps site addresses back to origin ASes by longest-prefix
	// match, the way the paper attributed A/AAAA records to
	// destination ASes using BGP data.
	plan *ipam.Plan

	mu      sync.Mutex
	alts    map[altKey]altRoute // lazily computed alternative paths
	altComp *bgp.Computer       // pooled per-destination computer for alternatives
}

type altKey struct {
	dst int
	fam topo.Family
}

// altRoute is a cached alternative path with its precomputed
// data-plane characteristics. A nil path means no policy-compliant
// alternative exists.
type altRoute struct {
	path []int
	perf netsim.PathPerf
}

// NewSimFetcher precomputes primary and alternate RIBs from the
// vantage AS to every AS in the graph.
func NewSimFetcher(vantageAS int, cat *websim.Catalog, model *netsim.Model, pathChangeFrac float64, totalRounds int, seed int64) (*SimFetcher, error) {
	if totalRounds < 1 {
		return nil, fmt.Errorf("measure: TotalRounds %d < 1", totalRounds)
	}
	if pathChangeFrac < 0 || pathChangeFrac > 1 {
		return nil, fmt.Errorf("measure: PathChangeFrac %v out of [0,1]", pathChangeFrac)
	}
	g := cat.Graph()
	if vantageAS < 0 || vantageAS >= g.N() {
		return nil, fmt.Errorf("measure: vantage AS %d out of range", vantageAS)
	}
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	f := &SimFetcher{
		VantageAS:      vantageAS,
		Cat:            cat,
		Model:          model,
		PathChangeFrac: pathChangeFrac,
		TotalRounds:    totalRounds,
		Seed:           seed,
		alts:           make(map[altKey]altRoute),
		vantageQual:    model.VantageQuality(vantageAS),
	}
	for _, fam := range []topo.Family{topo.V4, topo.V6} {
		f.ribs[fam] = bgp.BuildRIB(g, vantageAS, all, fam)
		perf := make([]netsim.PathPerf, g.N())
		change := make([]int32, g.N())
		for dst := 0; dst < g.N(); dst++ {
			change[dst] = int32(f.computeChangeRound(dst, fam))
			if p := f.ribs[fam].Lookup(dst); p != nil {
				perf[dst] = model.PathPerf(p, fam)
			}
		}
		f.primPerf[fam] = perf
		f.changeAt[fam] = change
	}
	plan, err := ipam.NewPlan(g)
	if err != nil {
		return nil, err
	}
	f.plan = plan
	return f, nil
}

// altPath lazily computes (and caches) the alternative path to dst
// and its path characteristics. A nil path means no policy-compliant
// alternative exists. The per-destination route computer is pooled
// across calls.
func (f *SimFetcher) altPath(dst int, fam topo.Family) altRoute {
	k := altKey{dst, fam}
	f.mu.Lock()
	defer f.mu.Unlock()
	if r, ok := f.alts[k]; ok {
		return r
	}
	if f.altComp == nil {
		f.altComp = bgp.NewComputer(f.Cat.Graph())
	}
	f.altComp.Routes(dst, fam)
	var r altRoute
	if p := f.altComp.AltPathFrom(f.VantageAS); p != nil {
		r = altRoute{path: p, perf: f.Model.PathPerf(p, fam)}
	}
	f.alts[k] = r
	return r
}

// computeChangeRound returns the round at which (dst, fam) reroutes,
// or -1; tabulated once at construction.
func (f *SimFetcher) computeChangeRound(dst int, fam topo.Family) int {
	if !det.Bool(f.PathChangeFrac, uint64(f.Seed), uint64(f.VantageAS), uint64(dst), uint64(fam), 0xC4A6) {
		return -1
	}
	// Change somewhere in the middle half of the study.
	lo := f.TotalRounds / 4
	span := f.TotalRounds/2 + 1
	return lo + det.IntN(span, uint64(f.Seed), uint64(f.VantageAS), uint64(dst), uint64(fam), 0x0DD)
}

// route returns the path and data-plane characteristics in effect for
// (dst, fam) at round.
func (f *SimFetcher) route(dst int, fam topo.Family, round int) ([]int, netsim.PathPerf) {
	primary := f.ribs[fam].Lookup(dst)
	if primary == nil {
		return nil, netsim.PathPerf{}
	}
	if cr := f.changeAt[fam][dst]; cr >= 0 && round >= int(cr) {
		if alt := f.altPath(dst, fam); alt.path != nil {
			return alt.path, alt.perf
		}
	}
	return primary, f.primPerf[fam][dst]
}

// PathTo returns the AS path from the vantage to dst over fam in
// effect at round, or nil when dst is unreachable.
func (f *SimFetcher) PathTo(dst int, fam topo.Family, round int) []int {
	p, _ := f.route(dst, fam, round)
	return p
}

// origins computes (and memoizes on the site) the origin-AS
// attribution: the site's addresses mapped back to ASes by
// longest-prefix match against the address plan, mirroring the
// paper's BGP-based attribution. v6Full is the post-adoption value;
// callers gate it on dual-stack status.
func (f *SimFetcher) origins(site *websim.Site, id int64) (v4, v6Full int) {
	if v4, v6Full, ok := site.CachedOrigins(); ok {
		return v4, v6Full
	}
	v4 = f.plan.OriginV4(f.plan.SiteV4(site.V4AS, id))
	v6Full = -1
	if site.V6AS >= 0 {
		if addr := f.plan.SiteV6(site.V6AS, id); addr != nil {
			v6Full = f.plan.OriginV6(addr)
		}
	}
	site.CacheOrigins(v4, v6Full)
	return v4, v6Full
}

// Resolve implements Fetcher: A always exists, AAAA appears at the
// site's adoption date, and the origins come from one catalogue
// lookup.
//
// Sites that are not dual-stack at the query date — the vast majority
// of a paper-scale population — are answered from the allocation-free
// hosting summary: no Site is materialized, and the v4 origin is the
// hosting AS directly. That shortcut is exact: the address plan gives
// every AS one disjoint prefix per family and places a site's address
// inside its hosting AS's prefix, so the longest-prefix match the
// slow path performs can only resolve back to the hosting AS
// (pinned by TestLiteResolveMatchesLPM). Dual-stack sites take the
// full path: the Site is needed for the download phase anyway, and
// its memoized LPM attribution also yields the v6 origin.
func (f *SimFetcher) Resolve(ref SiteRef, date time.Time) (hasA, hasAAAA bool, v4AS, v6AS int, err error) {
	h := f.Cat.HostingOf(ref.ID, int(ref.FirstRank))
	if !h.DualAtUnix(date.UnixNano()) {
		return true, false, h.V4AS, -1, nil
	}
	site := f.Cat.Site(ref.ID, int(ref.FirstRank))
	v4, v6Full := f.origins(site, int64(ref.ID))
	return true, true, v4, v6Full, nil
}

// Prepare implements Fetcher: the catalogue lookup, the route in
// effect at round and netsim's round speed over it, which every
// download of the site over fam in the round shares.
func (f *SimFetcher) Prepare(ref SiteRef, fam topo.Family, round int, tFrac float64) (Download, error) {
	site := f.Cat.Site(ref.ID, int(ref.FirstRank))
	dst := site.V4AS
	page := site.PageV4
	if fam == topo.V6 {
		dst = site.V6AS
		page = site.PageV6
		if dst < 0 {
			return Download{}, fmt.Errorf("measure: site %d has no AAAA", ref.ID)
		}
	}
	path, pp := f.route(dst, fam, round)
	if path == nil {
		return Download{}, fmt.Errorf("measure: AS %d unreachable over %v", dst, fam)
	}
	speed := f.Model.RoundSpeedPerf(f.vantageQual, site, pp, fam, tFrac, round)
	if speed <= 0 {
		return Download{}, fmt.Errorf("measure: zero speed to site %d over %v", ref.ID, fam)
	}
	return Download{Ref: ref, Fam: fam, PageBytes: page, Speed: speed, Setup: f.Model.SetupTime(pp)}, nil
}

// Fetch implements Fetcher: one simulated page download, its speed
// drawn around the round's.
func (f *SimFetcher) Fetch(d Download, rng *rand.Rand) (FetchResult, error) {
	speed := f.Model.SampleSpeed(d.Speed, rng)
	if speed <= 0 {
		return FetchResult{}, fmt.Errorf("measure: zero speed to site %d over %v", d.Ref.ID, d.Fam)
	}
	return FetchResult{PageBytes: d.PageBytes, Elapsed: netsim.DownloadTimeSetup(d.PageBytes, speed, d.Setup)}, nil
}
