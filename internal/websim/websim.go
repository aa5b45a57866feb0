// Package websim builds the catalogue of monitored web sites: where
// each site is hosted per address family (CDN users and relocated IPv6
// presences produce the paper's "different location" DL class), how
// its servers perform over IPv4 and IPv6 (per-AS mixes of deficient
// IPv6 server stacks produce the zero-mode phenomenon of Section 4),
// page sizes (including the few sites whose IPv4 and IPv6 pages differ
// by more than the 6% identity threshold), World IPv6 Day
// participation, and the scheduled performance transitions and trends
// behind Table 3's confidence failures.
//
// All attributes are pure functions of (seed, site id, first rank),
// computed lazily, so catalogues over millions of sites stay cheap: a
// full Site is built and cached on first request (the measurement
// requests one only for the dual-stack minority), while the DNS phase
// reads the hosting summary, memoized in 8 bytes per visited id for
// the never-adopting majority (see HostingOf).
package websim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/det"
	"v6web/internal/topo"
)

// EventKind classifies a scheduled performance change.
type EventKind int

const (
	// TransitionUp is a sharp upward level shift (Table 3 "↑").
	TransitionUp EventKind = iota
	// TransitionDown is a sharp downward level shift ("↓").
	TransitionDown
	// TrendUp is a steady upward drift ("↗").
	TrendUp
	// TrendDown is a steady downward drift ("↘").
	TrendDown
)

// EventScope selects which address families an event affects.
type EventScope int

const (
	// ScopeBoth affects IPv4 and IPv6 alike.
	ScopeBoth EventScope = iota
	// ScopeV4 affects only IPv4.
	ScopeV4
	// ScopeV6 affects only IPv6.
	ScopeV6
)

// PerfEvent is one scheduled non-stationarity of a site's performance.
type PerfEvent struct {
	Kind      EventKind
	Scope     EventScope
	AtFrac    float64 // transition point as a fraction of the study
	Magnitude float64 // level ratio (transitions) or total drift (trends)
}

// Site is the full synthetic description of one monitored web site.
type Site struct {
	ID        alexa.SiteID
	FirstRank int

	V4AS int // hosting AS (dense index) for the A record
	V6AS int // hosting AS for the AAAA record; -1 if never v6
	CDN  bool

	AdoptTime time.Time // when the AAAA record appears (if V6AS >= 0)
	AdoptUnix int64     // AdoptTime in Unix nanoseconds — the hot-path cutoff

	PageV4 int // main page size over IPv4, bytes
	PageV6 int // main page size over IPv6, bytes

	SrvV4       float64 // server rate multiplier over IPv4 (~1.0)
	SrvV6       float64 // server rate multiplier over IPv6
	BadV6Server bool    // deficient IPv6 server stack

	V6DayParticipant bool

	Events []PerfEvent

	// origins memoizes the measurement layer's origin-AS attribution
	// (CacheOrigins/CachedOrigins): the attribution is a pure function
	// of the site, and the site table is its natural dense store.
	// Packed as (v4+2)<<32 | (v6+2); zero means unset.
	origins atomic.Uint64
}

// CachedOrigins returns the memoized origin-AS attribution, if any.
func (s *Site) CachedOrigins() (v4AS, v6AS int, ok bool) {
	packed := s.origins.Load()
	if packed == 0 {
		return 0, 0, false
	}
	return int(int32(packed>>32)) - 2, int(int32(uint32(packed))) - 2, true
}

// CacheOrigins memoizes an origin-AS attribution. Values must be
// >= -1, as origin ASes are (-1 meaning none).
func (s *Site) CacheOrigins(v4AS, v6AS int) {
	s.origins.Store(uint64(uint32(v4AS+2))<<32 | uint64(uint32(v6AS+2)))
}

// DL reports whether the site's IPv4 and IPv6 presences are in
// different ASes (the paper's "different locations" class).
func (s *Site) DL() bool { return s.V6AS >= 0 && s.V6AS != s.V4AS }

// DualAt reports whether the site is reachable over both families at
// time t.
func (s *Site) DualAt(t time.Time) bool {
	return s.DualAtUnix(t.UnixNano())
}

// DualAtUnix is DualAt against a precomputed Unix-nanosecond
// timestamp: a pair of integer comparisons on the per-site hot path
// instead of a time.Time comparison per call.
func (s *Site) DualAtUnix(ns int64) bool {
	return s.V6AS >= 0 && ns >= s.AdoptUnix
}

// SameContent reports whether the IPv4 and IPv6 page sizes agree
// within the tool's identity threshold (byte counts within frac).
func (s *Site) SameContent(frac float64) bool {
	d := s.PageV4 - s.PageV6
	if d < 0 {
		d = -d
	}
	return float64(d) <= frac*float64(s.PageV4)
}

// PerfMultiplier returns the combined effect of the site's scheduled
// events on family fam at study fraction tFrac in [0,1].
func (s *Site) PerfMultiplier(fam topo.Family, tFrac float64) float64 {
	mult := 1.0
	for _, e := range s.Events {
		if e.Scope == ScopeV4 && fam != topo.V4 {
			continue
		}
		if e.Scope == ScopeV6 && fam != topo.V6 {
			continue
		}
		switch e.Kind {
		case TransitionUp, TransitionDown:
			if tFrac >= e.AtFrac {
				mult *= e.Magnitude
			}
		case TrendUp:
			mult *= 1 + e.Magnitude*tFrac
		case TrendDown:
			mult *= 1 - e.Magnitude*tFrac
			if mult < 0.05 {
				mult = 0.05
			}
		}
	}
	return mult
}

// Config parameterizes catalogue generation.
type Config struct {
	Seed int64

	CDNFrac     float64 // fraction of sites hosted on a CDN (v4 side)
	RelocateDL  float64 // adopting sites on non-v6 host ASes that move v6 elsewhere
	DiffContent float64 // dual sites serving different v4/v6 page content

	// Server quality. A fraction of ASes are "bad mixes" where most
	// sites run deficient IPv6 server stacks; the rest host mostly
	// clean dual stacks.
	BadMixASFrac   float64 // ASes with a high deficient-server rate
	BadFracInBad   float64 // deficient-site rate inside bad-mix ASes
	BadFracInGood  float64 // deficient-site rate elsewhere
	V6DayCleanFrac float64 // participants that cleaned up servers

	TransitionFrac float64 // sites with one scheduled transition
	TrendFrac      float64 // sites with one scheduled trend

	// Page sizes, bytes (lognormal around Median).
	PageMedian float64
	PageSigma  float64
}

// DefaultConfig mirrors the 2011 web: sparse CDN v6, a sizeable
// deficient-server fringe, and enough non-stationarity to populate
// Table 3.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		CDNFrac:        0.05,
		RelocateDL:     0.08,
		DiffContent:    0.03,
		BadMixASFrac:   0.15,
		BadFracInBad:   0.75,
		BadFracInGood:  0.05,
		V6DayCleanFrac: 0.95,
		TransitionFrac: 0.04,
		TrendFrac:      0.13,
		PageMedian:     30000,
		PageSigma:      0.8,
	}
}

// Validate reports config errors.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"CDNFrac", c.CDNFrac}, {"RelocateDL", c.RelocateDL},
		{"DiffContent", c.DiffContent}, {"BadMixASFrac", c.BadMixASFrac},
		{"BadFracInBad", c.BadFracInBad}, {"BadFracInGood", c.BadFracInGood},
		{"TransitionFrac", c.TransitionFrac}, {"TrendFrac", c.TrendFrac},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("websim: %s=%v out of [0,1]", f.name, f.v)
		}
	}
	if c.PageMedian <= 0 {
		return fmt.Errorf("websim: PageMedian %v <= 0", c.PageMedian)
	}
	return nil
}

// Catalog lazily materializes Sites. Safe for concurrent use.
//
// Site ids are dense (the ranked list mints them sequentially; the
// extended population is a second dense range at a fixed base), so
// the cache is a pair of index-addressed tables of atomic pointers:
// Site is a lock-free load on the hot path, with a compare-and-swap
// on first materialization. Each table also carries the hosting memo
// over the same ids (see HostingOf). Ids outside the reserved ranges
// fall back to a mutex-guarded overflow map.
type Catalog struct {
	cfg   Config
	g     *topo.Graph
	adopt *alexa.Adoption

	// Candidate hosting pools (dense indices).
	stubs   []int // all non-CDN stub ASes
	v6stubs []int // v6-capable non-CDN stubs
	cdns    []int

	// Zipf-style cumulative weights over stubs and v6stubs.
	stubCum   []float64
	v6stubCum []float64

	// Index-addressed tables; see Reserve.
	dense   siteTable    // ids [0, len(dense.sites))
	extBase alexa.SiteID // base of the extended-id range
	ext     siteTable    // ids [extBase, extBase+len(ext.sites))

	count atomic.Int64 // materialized sites across all tables

	mu       sync.Mutex
	overflow map[alexa.SiteID]*Site // ids outside the reserved ranges
}

// NewCatalog builds a catalogue over graph g with adoption model ad.
func NewCatalog(g *topo.Graph, ad *alexa.Adoption, cfg Config) (*Catalog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Catalog{cfg: cfg, g: g, adopt: ad, overflow: make(map[alexa.SiteID]*Site)}
	for i := 0; i < g.N(); i++ {
		a := g.AS(i)
		if a.Tier != topo.Stub {
			continue
		}
		if a.CDN {
			c.cdns = append(c.cdns, i)
			continue
		}
		c.stubs = append(c.stubs, i)
		if a.V6 {
			c.v6stubs = append(c.v6stubs, i)
		}
	}
	if len(c.stubs) == 0 {
		return nil, fmt.Errorf("websim: topology has no stub ASes to host sites")
	}
	if len(c.v6stubs) == 0 {
		return nil, fmt.Errorf("websim: topology has no v6-capable stub ASes")
	}
	c.stubCum = zipfCum(len(c.stubs))
	c.v6stubCum = zipfCum(len(c.v6stubs))
	return c, nil
}

// zipfCum builds cumulative weights w_i ∝ 1/(i+1)^0.8, giving a
// heavy-tailed site-per-AS distribution: a few content-dense ASes and
// many ASes with a handful of sites (Table 8's "small number of
// sites" rows).
func zipfCum(n int) []float64 {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), 0.8)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return cum
}

// pick selects an index from cum by binary search on u in [0,1).
func pick(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Hosting-memo pages cover hostPageSize consecutive ids of a table.
const (
	hostPageBits = 12
	hostPageSize = 1 << hostPageBits
	hostPageMask = hostPageSize - 1
)

// hostPage memoizes the hosting of the never-adopting sites among
// hostPageSize consecutive ids: V4AS+1 per id, 0 while unset.
type hostPage [hostPageSize]atomic.Uint64

// siteTable is one index-addressed id range: the Site cache and the
// hosting memo's pages over the same ids. A page is allocated on its
// first memoized id, so the memo costs memory only where the DNS phase
// has visited single-stack sites.
type siteTable struct {
	sites []atomic.Pointer[Site]
	pages []atomic.Pointer[hostPage]
}

// grow resizes t to n ids, carrying over every cached Site and memo
// page.
func (t *siteTable) grow(n int) {
	sites := make([]atomic.Pointer[Site], n)
	for i := range t.sites {
		sites[i].Store(t.sites[i].Load())
	}
	pages := make([]atomic.Pointer[hostPage], (n+hostPageMask)>>hostPageBits)
	for i := range t.pages {
		pages[i].Store(t.pages[i].Load())
	}
	t.sites, t.pages = sites, pages
}

// memoized returns the memoized V4AS of the never-adopting site at
// index i, if any.
func (t *siteTable) memoized(i int) (v4AS int, ok bool) {
	p := t.pages[i>>hostPageBits].Load()
	if p == nil {
		return 0, false
	}
	v := p[i&hostPageMask].Load()
	return int(v) - 1, v != 0
}

// memoize records the V4AS of the never-adopting site at index i,
// allocating its page on first use. Racing callers store the same
// value (hosting is deterministic), so a lost race is harmless.
func (t *siteTable) memoize(i, v4AS int) {
	slot := &t.pages[i>>hostPageBits]
	p := slot.Load()
	if p == nil {
		p = new(hostPage)
		if !slot.CompareAndSwap(nil, p) {
			p = slot.Load()
		}
	}
	p[i&hostPageMask].Store(uint64(v4AS) + 1)
}

// Reserve sizes the index-addressed site tables: ids in [0, mainIDs)
// and [extBase, extBase+extIDs) become lock-free. Growing preserves
// already-materialized sites and memoized hosting. Reserve must not
// run concurrently with Site or HostingOf — call it between rounds
// (the orchestrator does) or before monitoring starts.
func (c *Catalog) Reserve(mainIDs int, extBase alexa.SiteID, extIDs int) {
	if mainIDs > len(c.dense.sites) {
		c.dense.grow(max(mainIDs, 2*len(c.dense.sites)))
	}
	if extIDs > 0 && (c.ext.sites == nil || extBase != c.extBase || extIDs > len(c.ext.sites)) {
		if c.ext.sites != nil && extBase != c.extBase {
			// Rebasing would orphan materialized sites and break the
			// one-shared-pointer-per-id invariant.
			panic("websim: Reserve with a different extended base")
		}
		c.ext.grow(extIDs)
		c.extBase = extBase
	}
}

// locate returns the reserved table holding id and id's index in it,
// or nil when id is outside the reserved ranges.
func (c *Catalog) locate(id alexa.SiteID) (*siteTable, int) {
	if id >= 0 && id < alexa.SiteID(len(c.dense.sites)) {
		return &c.dense, int(id)
	}
	if c.ext.sites != nil && id >= c.extBase && id < c.extBase+alexa.SiteID(len(c.ext.sites)) {
		return &c.ext, int(id - c.extBase)
	}
	return nil, 0
}

// Site materializes (or returns the cached) description of a site.
// firstRank is the site's rank at first appearance in the list.
func (c *Catalog) Site(id alexa.SiteID, firstRank int) *Site {
	if t, i := c.locate(id); t != nil {
		slot := &t.sites[i]
		if s := slot.Load(); s != nil {
			return s
		}
		s := c.build(id, firstRank)
		// Keep the first stored instance so all callers share one
		// pointer; the build is a pure function of (seed, id, rank),
		// so a lost race only wastes the duplicate.
		if slot.CompareAndSwap(nil, s) {
			c.count.Add(1)
			return s
		}
		return slot.Load()
	}
	c.mu.Lock()
	if s, ok := c.overflow[id]; ok {
		c.mu.Unlock()
		return s
	}
	c.mu.Unlock()
	s := c.build(id, firstRank)
	c.mu.Lock()
	if prev, ok := c.overflow[id]; ok {
		s = prev
	} else {
		c.overflow[id] = s
		c.count.Add(1)
	}
	c.mu.Unlock()
	return s
}

// badMixAS reports whether hosting AS as (dense index) has a high
// deficient-IPv6-server rate.
func (c *Catalog) badMixAS(as int) bool {
	return det.Bool(c.cfg.BadMixASFrac, uint64(c.cfg.Seed), uint64(as), 0xBAD)
}

// hosting computes the pure hosting attributes of a site — where its
// A and (if it ever adopts) AAAA records point, whether it sits on a
// CDN, and its adoption date. It is the shared source of truth for
// build and the allocation-free HostingOf fast path, so the two can
// never draw different deterministic values.
func (c *Catalog) hosting(id alexa.SiteID, firstRank int) (v4AS, v6AS int, cdn bool, adoptTime time.Time, adopts bool) {
	seed := uint64(c.cfg.Seed)
	sid := uint64(id)
	v6AS = -1
	adoptTime, adopts = c.adopt.Adopts(id, firstRank)

	cdn = det.Bool(c.cfg.CDNFrac, seed, sid, 1)
	switch {
	case cdn:
		v4AS = c.cdns[det.IntN(len(c.cdns), seed, sid, 2)]
		if adopts {
			// CDNs have no production v6: the AAAA points at the
			// origin server in some v6-capable AS → DL.
			v6AS = c.v6stubs[pick(c.v6stubCum, det.Float(seed, sid, 3))]
		}
	case adopts:
		// Adopting sites live in v6-capable ASes, except the
		// RelocateDL fraction whose home AS lacks v6 and who host
		// their v6 presence elsewhere.
		if det.Bool(c.cfg.RelocateDL, seed, sid, 4) {
			v4AS = c.stubs[pick(c.stubCum, det.Float(seed, sid, 5))]
			// A collision (home AS happens to be the chosen v6 host)
			// simply yields a same-location site, which is fine.
			v6AS = c.v6stubs[pick(c.v6stubCum, det.Float(seed, sid, 6))]
		} else {
			v4AS = c.v6stubs[pick(c.v6stubCum, det.Float(seed, sid, 7))]
			v6AS = v4AS
		}
	default:
		v4AS = c.stubs[pick(c.stubCum, det.Float(seed, sid, 8))]
	}
	return v4AS, v6AS, cdn, adoptTime, adopts
}

// Hosting is a site's allocation-free hosting summary: enough to
// answer the DNS query phase (does an AAAA exist at a date, and in
// which AS) without materializing the full Site.
type Hosting struct {
	V4AS      int
	V6AS      int   // -1 if the site never adopts IPv6
	AdoptUnix int64 // when the AAAA record appears, if V6AS >= 0
}

// DualAtUnix reports whether the site is reachable over both families
// at the given Unix-nanosecond instant.
func (h Hosting) DualAtUnix(ns int64) bool {
	return h.V6AS >= 0 && ns >= h.AdoptUnix
}

// HostingOf returns the hosting summary of a site without
// materializing a Site for it. This is the DNS query phase's fast
// path: the vast single-stack majority of a paper-scale population
// never needs a Site built at all, yet is queried at each vantage's
// first visit.
//
// A site already in the cache is read from it. Otherwise a
// never-adopting site (V6AS -1) in a reserved range is read from the
// hosting memo, which holds its V4AS in 8 bytes per id on pages
// allocated on first use; on a miss the summary is computed from the
// deterministic draws and, for such a site, memoized. Adopting sites
// (every World IPv6 Day participant among them) are recomputed on each
// call and take no memo memory. Like the Site cache, the memo is keyed
// on id alone: callers must pass each id the same firstRank on every
// call (its rank at first appearance, as the orchestrator does).
func (c *Catalog) HostingOf(id alexa.SiteID, firstRank int) Hosting {
	t, i := c.locate(id)
	if t != nil {
		if s := t.sites[i].Load(); s != nil {
			return Hosting{V4AS: s.V4AS, V6AS: s.V6AS, AdoptUnix: s.AdoptUnix}
		}
		if v4AS, ok := t.memoized(i); ok {
			return Hosting{V4AS: v4AS, V6AS: -1}
		}
	} else {
		c.mu.Lock()
		s, ok := c.overflow[id]
		c.mu.Unlock()
		if ok {
			return Hosting{V4AS: s.V4AS, V6AS: s.V6AS, AdoptUnix: s.AdoptUnix}
		}
	}
	v4AS, v6AS, _, adoptTime, adopts := c.hosting(id, firstRank)
	h := Hosting{V4AS: v4AS, V6AS: v6AS}
	if adopts {
		h.AdoptUnix = adoptTime.UnixNano()
	} else if t != nil {
		t.memoize(i, v4AS)
	}
	return h
}

func (c *Catalog) build(id alexa.SiteID, firstRank int) *Site {
	seed := uint64(c.cfg.Seed)
	sid := uint64(id)
	s := &Site{ID: id, FirstRank: firstRank}

	var adoptTime time.Time
	var adopts bool
	s.V4AS, s.V6AS, s.CDN, adoptTime, adopts = c.hosting(id, firstRank)
	if adopts {
		s.AdoptTime = adoptTime
		s.AdoptUnix = adoptTime.UnixNano()
	}

	// Pages.
	s.PageV4 = int(det.Lognormal(math.Log(c.cfg.PageMedian), c.cfg.PageSigma, seed, sid, 9))
	if s.PageV4 < 512 {
		s.PageV4 = 512
	}
	if s.V6AS >= 0 && det.Bool(c.cfg.DiffContent, seed, sid, 10) {
		// Different content: sizes differ well beyond 6%.
		s.PageV6 = int(float64(s.PageV4) * det.Range(1.2, 3.0, seed, sid, 11))
	} else {
		// Identical modulo tiny dynamic variation (well inside 6%).
		s.PageV6 = int(float64(s.PageV4) * det.Range(0.99, 1.01, seed, sid, 12))
	}

	// Servers.
	s.SrvV4 = det.Lognormal(0, 0.10, seed, sid, 13)
	if s.CDN {
		s.SrvV4 *= 1.25 // CDNs serve fast
	}
	if s.V6AS >= 0 {
		badFrac := c.cfg.BadFracInGood
		if c.badMixAS(s.V6AS) {
			badFrac = c.cfg.BadFracInBad
		}
		s.BadV6Server = det.Bool(badFrac, seed, sid, 14)
		// World IPv6 Day participants: sites already planning v6 on
		// the day itself, with cleaned-up stacks.
		if s.AdoptTime.Equal(c.adopt.Timeline.V6Day) {
			s.V6DayParticipant = true
			if det.Bool(c.cfg.V6DayCleanFrac, seed, sid, 15) {
				s.BadV6Server = false
			}
		}
		if s.BadV6Server {
			s.SrvV6 = s.SrvV4 * det.Range(0.30, 0.75, seed, sid, 16)
		} else {
			s.SrvV6 = s.SrvV4 * det.Range(0.95, 1.03, seed, sid, 17)
		}
	}

	// Non-stationarity.
	if det.Bool(c.cfg.TransitionFrac, seed, sid, 18) {
		kind := TransitionDown
		mag := det.Range(0.30, 0.60, seed, sid, 19) // level drops to 30-60%
		if det.Bool(0.45, seed, sid, 20) {
			kind = TransitionUp
			mag = det.Range(1.7, 2.8, seed, sid, 21)
		}
		s.Events = append(s.Events, PerfEvent{
			Kind:      kind,
			Scope:     EventScope(det.IntN(3, seed, sid, 22)),
			AtFrac:    det.Range(0.25, 0.75, seed, sid, 23),
			Magnitude: mag,
		})
	}
	if det.Bool(c.cfg.TrendFrac, seed, sid, 25) {
		// Up-drifts inflate the mean as they inflate the variance,
		// so they need a larger magnitude than down-drifts to defeat
		// the relative CI target.
		kind := TrendDown
		mag := det.Range(0.8, 1.3, seed, sid, 28)
		if det.Bool(0.55, seed, sid, 26) {
			kind = TrendUp
			mag = det.Range(1.8, 3.2, seed, sid, 29)
		}
		s.Events = append(s.Events, PerfEvent{
			Kind:      kind,
			Scope:     EventScope(det.IntN(3, seed, sid, 27)),
			Magnitude: mag,
		})
	}
	return s
}

// CachedCount returns how many sites have been materialized.
func (c *Catalog) CachedCount() int {
	return int(c.count.Load())
}

// Graph returns the topology the catalogue hosts sites on.
func (c *Catalog) Graph() *topo.Graph { return c.g }

// Adoption returns the adoption model in use.
func (c *Catalog) Adoption() *alexa.Adoption { return c.adopt }
