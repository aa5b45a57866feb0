// Package measure reimplements the paper's monitoring tool (Fig. 2):
// for each site, a worker (at most 25 run in parallel, "to avoid
// bandwidth and processing bottlenecks") queries A and AAAA records,
// downloads the main page over both families for dual-stack sites,
// declares the pages identical when byte counts are within 6%, and
// then repeats downloads per family until the average download time's
// 95% confidence interval is within 10% of the mean. Converged
// results, DNS outcomes, and AS-path snapshots land in a store.DB.
//
// The round's list is visited in a random order at block granularity:
// workers claim contiguous blocks of the list in a per-round shuffled
// order and walk each block in list order, so for a list in site-id
// order neighbouring visits share cache lines in every per-site table;
// each worker writes a block's site rows and DNS rows to the store in
// one batch per block.
//
// The engine is generic over a Fetcher: the simulation fetcher drives
// netsim over BGP paths; the livenet fetcher speaks real DNS and HTTP
// over loopback sockets.
package measure

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/det"
	"v6web/internal/stats"
	"v6web/internal/store"
	"v6web/internal/topo"
)

// SiteRef identifies a site to monitor.
type SiteRef struct {
	ID        alexa.SiteID
	FirstRank int
}

// HostName maps a site id to its synthetic DNS name — the canonical
// alexa.HostName derivation the store interns site hosts against.
func HostName(id alexa.SiteID) string { return alexa.HostName(id) }

// famBoth avoids a fresh slice per site when iterating both families.
var famBoth = [2]topo.Family{topo.V4, topo.V6}

// FetchResult is one completed page download.
type FetchResult struct {
	PageBytes int
	Elapsed   time.Duration
}

// Speed returns the observed download speed in kbytes/sec, the
// paper's performance metric.
func (f FetchResult) Speed() float64 {
	if f.Elapsed <= 0 {
		return 0
	}
	return float64(f.PageBytes) / 1000 / f.Elapsed.Seconds()
}

// Fetcher abstracts the network side of monitoring from one vantage.
type Fetcher interface {
	// Resolve performs the A/AAAA query phase for a site at a date and
	// attributes its records to origin ASes (as the paper derives them
	// from BGP data); -1 means an unknown or absent origin.
	Resolve(ref SiteRef, date time.Time) (hasA, hasAAAA bool, v4AS, v6AS int, err error)
	// Fetch downloads the site's main page once over fam. round and
	// tFrac position the download in the study; rng supplies the
	// sampling randomness owned by the monitor.
	Fetch(ref SiteRef, fam topo.Family, round int, tFrac float64, rng *rand.Rand) (FetchResult, error)
}

// PathReporter optionally reports the AS path to a destination AS in
// effect at a round, mirroring the paper's post-round BGP table dump.
type PathReporter interface {
	PathTo(dst int, fam topo.Family, round int) []int
}

// Config parameterizes a Monitor.
type Config struct {
	Vantage      store.Vantage
	Workers      int     // parallel site monitors (paper: 25)
	IdentityFrac float64 // page identity threshold (paper: 0.06)
	CI           stats.CIStop
	MaxDownloads int // per-family download budget within a round
	Seed         int64
}

// DefaultConfig mirrors the paper's tool parameters.
func DefaultConfig(vantage store.Vantage, seed int64) Config {
	return Config{
		Vantage:      vantage,
		Workers:      25,
		IdentityFrac: 0.06,
		CI:           stats.CIStop{Frac: 0.10, MinN: 3},
		MaxDownloads: 30,
		Seed:         seed,
	}
}

// Validate reports config errors.
func (c Config) Validate() error {
	if c.Vantage == "" {
		return fmt.Errorf("measure: empty vantage name")
	}
	if c.Workers < 1 {
		return fmt.Errorf("measure: Workers %d < 1", c.Workers)
	}
	if c.IdentityFrac <= 0 || c.IdentityFrac >= 1 {
		return fmt.Errorf("measure: IdentityFrac %v out of (0,1)", c.IdentityFrac)
	}
	if c.MaxDownloads < c.CI.MinN {
		return fmt.Errorf("measure: MaxDownloads %d below CI.MinN %d", c.MaxDownloads, c.CI.MinN)
	}
	return nil
}

// RoundStats summarizes one monitoring round.
type RoundStats struct {
	Round      int
	Sites      int // sites monitored
	Dual       int // sites with both A and AAAA
	Identical  int // dual sites passing the page identity check
	Measured   int // dual sites with converged samples in both families
	FetchFails int
}

// Monitor runs monitoring rounds from one vantage point.
type Monitor struct {
	cfg   Config
	fetch Fetcher
	db    *store.DB

	// paths is the fetcher's optional PathReporter, asserted once at
	// construction instead of per round.
	paths PathReporter
}

// NewMonitor builds a monitor writing into db.
func NewMonitor(cfg Config, fetch Fetcher, db *store.DB) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if fetch == nil || db == nil {
		return nil, fmt.Errorf("measure: nil fetcher or db")
	}
	m := &Monitor{cfg: cfg, fetch: fetch, db: db}
	m.paths, _ = fetch.(PathReporter)
	return m, nil
}

// DB returns the result database.
func (m *Monitor) DB() *store.DB { return m.db }

// destSet is a growable bitset over dense destination-AS indices —
// the per-worker "ASes seen this round" accumulator.
type destSet struct{ bits []uint64 }

func (s *destSet) add(i int) {
	w := i >> 6
	if w >= len(s.bits) {
		grown := make([]uint64, max(w+1, 2*len(s.bits)))
		copy(grown, s.bits)
		s.bits = grown
	}
	s.bits[w] |= 1 << (uint(i) & 63)
}

func (s *destSet) merge(o *destSet) {
	if len(o.bits) > len(s.bits) {
		grown := make([]uint64, len(o.bits))
		copy(grown, s.bits)
		s.bits = grown
	}
	for i, b := range o.bits {
		s.bits[i] |= b
	}
}

// forEach visits set bits in ascending order.
func (s *destSet) forEach(fn func(int)) {
	for w, b := range s.bits {
		for b != 0 {
			fn(w<<6 + bits.TrailingZeros64(b))
			b &= b - 1
		}
	}
}

// roundAcc is one worker's private accumulator; workers never share
// state during a round, so the per-site path takes no locks.
type roundAcc struct {
	st   RoundStats
	dest destSet
	_    [5]uint64 // pad to a cache line so workers don't false-share
}

// Dispatch block bounds for RunRound. A block walks neighbouring
// entries of the caller's slice; core passes its site lists in
// ascending id order, so up to maxBlock of them stream through
// adjacent slots of every per-site table (the catalogue's site
// pointers, the store's site-row columns and DNS runs) instead of
// landing on a random cache line each. minBlock amortizes a block's
// fixed cost: one claim and one store.Flush, which takes a lock per
// site stripe and per DNS stripe the block's rows fall in (sixteen of
// each for a run of sixteen or more contiguous ids).
const (
	minBlock = 64
	maxBlock = 1024
)

// blockSize sizes a round's dispatch blocks: between minBlock and
// maxBlock sites, and no more than a quarter of a worker's share, so
// a small round (V6-Day's few thousand participants) is still
// randomized at a fine grain and balanced across workers when its
// slow dual-stack sites cluster.
func blockSize(sites, workers int) int {
	return max(minBlock, min(maxBlock, sites/(4*workers)))
}

// RunRound monitors every site once. date stamps the samples; tFrac
// in [0,1] positions the round within the study for the simulated
// substrate. The visit order is randomized per round ("to avoid
// time-of-day biases") at block granularity: sites is cut into
// contiguous blocks (see blockSize), the blocks are dispatched to the
// workers in a per-(seed, round) random order, and each block is
// walked in slice order. A worker flushes a block's site rows and DNS
// rows to the store once, at the block's end.
//
// Visit order is not observable in the results: every random draw is
// derived per (seed, round, site), so results do not depend on which
// worker visits a site or when. Stats and the destination-AS set are
// accumulated per worker and merged after the round: the per-site path
// is free of the global mutex the original design serialized every
// worker through.
//
// When the fetcher is a PathReporter, the round ends with a path
// snapshot toward its destination ASes: the non-negative origins
// Resolve reported for the round's dual-stack sites, which are the
// sites whose DNS row is dual-stack, and the origins their site rows
// hold. The snapshot is therefore a function of the stored DNS and
// site rows, and core.Scenario.ReplayPaths rebuilds it from them.
func (m *Monitor) RunRound(round int, date time.Time, tFrac float64, sites []SiteRef) RoundStats {
	bs := blockSize(len(sites), m.cfg.Workers)
	order := make([]int, (len(sites)+bs-1)/bs)
	for i := range order {
		order[i] = i
	}
	shuffleRng := rand.New(rand.NewSource(int64(det.Mix(uint64(m.cfg.Seed), uint64(round), 0x0BDE))))
	shuffleRng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	var next atomic.Int64 // index into order of the next block to claim
	accs := make([]roundAcc, m.cfg.Workers)

	var wg sync.WaitGroup
	for w := 0; w < m.cfg.Workers; w++ {
		wg.Add(1)
		go func(acc *roundAcc) {
			defer wg.Done()
			// One reusable RNG per worker, reseeded per (seed, round,
			// site) by monitorSite so results do not depend on which
			// worker picks a site up or in what order.
			src := det.NewSource(0)
			rng := rand.New(src)
			// The batch holds at most one block and is flushed into the
			// store per block, so the worker never accumulates a round's
			// worth of rows: the single-stack majority collapses into
			// run-length counters immediately. It is the worker's own:
			// core runs one monitor's rounds for several site lists at
			// once, so a batch on the Monitor would be shared.
			batch := store.NewBatch(bs)
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					return
				}
				lo := order[k] * bs
				for _, ref := range sites[lo:min(lo+bs, len(sites))] {
					res := m.monitorSite(ref, round, date, tFrac, src, rng)
					if res.hasDNS {
						batch.AddDNS(res.dns)
						batch.AddSite(store.CanonicalSite{Site: ref.ID, FirstRank: ref.FirstRank, V4AS: res.v4AS, V6AS: res.v6AS})
					}
					if res.dual {
						acc.st.Dual++
					}
					if res.identical {
						acc.st.Identical++
					}
					if res.measured {
						acc.st.Measured++
					}
					if res.fetchFail {
						acc.st.FetchFails++
					}
					// Only dual-stack sites count as monitored
					// destinations (Table 2's AS coverage is about the
					// dual-monitored population).
					if res.dual && res.v4AS >= 0 {
						acc.dest.add(res.v4AS)
					}
					if res.dual && res.v6AS >= 0 {
						acc.dest.add(res.v6AS)
					}
				}
				m.db.Flush(m.cfg.Vantage, batch)
			}
		}(&accs[w])
	}
	wg.Wait()

	st := RoundStats{Round: round, Sites: len(sites)}
	var destASes destSet
	for w := range accs {
		st.Dual += accs[w].st.Dual
		st.Identical += accs[w].st.Identical
		st.Measured += accs[w].st.Measured
		st.FetchFails += accs[w].st.FetchFails
		destASes.merge(&accs[w].dest)
	}

	// Post-round BGP snapshot: record paths to every destination AS
	// seen, over both families (the paper retrieved routing tables
	// "after each monitoring round").
	if m.paths != nil {
		destASes.forEach(func(dst int) {
			for _, fam := range famBoth {
				if p := m.paths.PathTo(dst, fam, round); p != nil {
					m.db.AddPath(m.cfg.Vantage, fam, dst, round, p)
				}
			}
		})
	}
	return st
}

type siteResult struct {
	dual      bool
	identical bool
	measured  bool
	fetchFail bool
	v4AS      int
	v6AS      int
	dns       store.DNSRow
	hasDNS    bool // dns holds this round's row; the site row is due too (workers batch-insert both)
}

// reseeder is the worker's reusable det source behind rng.
type reseeder interface{ Reseed(parts ...uint64) }

// monitorSite runs the Fig 2 phases for one site. The DNS row and the
// site's origins are returned in the result rather than written here
// so workers can batch their inserts. Only the download phases draw
// from rng, so src is reseeded per (seed, round, site) once the site
// is known to be dual-stack, sparing the single-stack majority.
func (m *Monitor) monitorSite(ref SiteRef, round int, date time.Time, tFrac float64, src reseeder, rng *rand.Rand) siteResult {
	hasA, hasAAAA, v4AS, v6AS, err := m.fetch.Resolve(ref, date)
	if err != nil {
		return siteResult{fetchFail: true}
	}
	out := siteResult{v4AS: v4AS, v6AS: v6AS}
	out.dns = store.DNSRow{Site: ref.ID, Round: round, HasA: hasA, HasAAAA: hasAAAA}
	out.hasDNS = true
	if !hasA || !hasAAAA {
		return out
	}
	out.dual = true
	src.Reseed(uint64(m.cfg.Seed), uint64(round), uint64(ref.ID), 0xF00D)

	// Phase 2: single download per family; compare byte counts.
	first4, err4 := m.fetch.Fetch(ref, topo.V4, round, tFrac, rng)
	first6, err6 := m.fetch.Fetch(ref, topo.V6, round, tFrac, rng)
	if err4 != nil || err6 != nil {
		out.fetchFail = true
		return out
	}
	diff := first4.PageBytes - first6.PageBytes
	if diff < 0 {
		diff = -diff
	}
	out.dns.Identical = float64(diff) <= m.cfg.IdentityFrac*float64(first4.PageBytes)
	if !out.dns.Identical {
		return out
	}
	out.identical = true

	// Phase 3: repeat downloads until the CI stop rule, per family
	// ("first for IPv4 and then IPv6, each after proper resetting").
	okBoth := true
	for _, fam := range famBoth {
		sample, ok := m.converge(ref, fam, round, tFrac, rng)
		sample.Round = round
		sample.Date = date
		m.db.AddSample(m.cfg.Vantage, ref.ID, fam, sample)
		okBoth = okBoth && ok
	}
	out.measured = okBoth
	return out
}

// converge downloads until the CI stop rule is met or the budget runs
// out, returning the round sample.
func (m *Monitor) converge(ref SiteRef, fam topo.Family, round int, tFrac float64, rng *rand.Rand) (store.Sample, bool) {
	var times stats.Welford
	page := 0
	for i := 0; i < m.cfg.MaxDownloads; i++ {
		res, err := m.fetch.Fetch(ref, fam, round, tFrac, rng)
		if err != nil {
			continue
		}
		page = res.PageBytes
		times.Add(res.Elapsed.Seconds())
		if m.cfg.CI.Done(&times) {
			break
		}
	}
	s := store.Sample{PageBytes: page, Downloads: times.N()}
	if times.N() > 0 && times.Mean() > 0 {
		s.MeanSpeed = float64(page) / 1000 / times.Mean()
	}
	s.CIOK = m.cfg.CI.Done(&times)
	return s, s.CIOK
}
