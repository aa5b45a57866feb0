// Package measure reimplements the paper's monitoring tool (Fig. 2):
// for each site, a worker (at most 25 run in parallel, "to avoid
// bandwidth and processing bottlenecks") queries A and AAAA records,
// downloads the main page over both families for dual-stack sites,
// declares the pages identical when byte counts are within 6%, and
// then repeats downloads per family until the average download time's
// 95% confidence interval is within 10% of the mean. A dual-stack
// visit prepares each family's download once (Fetcher.Prepare: what
// every download of the site over that family shares within the
// round) and draws each download from it (Fetcher.Fetch). Converged
// results and DNS outcomes land in a store.DB. Each round also returns
// its destination ASes, the origins of its dual-stack sites; the AS
// paths toward them come from the BGP tables read after the round,
// which the caller records (core does).
//
// The round's list is visited in a random order at block granularity:
// workers claim contiguous blocks of the list in a per-round shuffled
// order and walk each block in list order, so for a list in site-id
// order neighbouring visits share cache lines in every per-site table;
// each worker writes a block's site rows, DNS rows and samples to the
// store through a batch it takes from a pool for the block and puts
// back after it.
//
// Not every visit queries. A site's simulated DNS answer changes at
// most once, at its IPv6 adoption instant, so a site visited before
// its adoption round (SiteRef.Until) is carried: its id goes into the
// block's batch, and the store grows its open DNS run by the round,
// with no Resolve, no site-row compare and no row append. The store
// hands a carried visit back, for the worker to query as any other,
// when its history at the vantage does not end right before the round
// (the site's first visit there, the vantage's first round, the round
// after an outage), so a carried visit records exactly what a query
// would have. Dual-stack sites, a site's adoption round and every ref
// whose Until is unset query every round.
//
// The engine is generic over a Fetcher: the simulation fetcher drives
// netsim over BGP paths, and tests substitute their own.
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

// SiteRef identifies a site to monitor. It is 16 bytes: core holds
// one per tracked site, a million and more at paper scale.
type SiteRef struct {
	ID        alexa.SiteID
	FirstRank int32
	// Until is the first round at which the site's DNS answer may
	// differ from its answer the round before: its IPv6 adoption round,
	// or math.MaxInt32 when it does not adopt within the study. A visit
	// at a round below Until is carried instead of queried (see
	// Monitor.RunRound). The zero value promises nothing, so every
	// visit queries.
	Until int32
}

// famBoth avoids a fresh slice per site when iterating both families.
var famBoth = [2]topo.Family{topo.V4, topo.V6}

// FetchResult is one completed page download.
type FetchResult struct {
	PageBytes int
	Elapsed   time.Duration
}

// Download is a site's main page over one family as it stands for one
// round: what Fetcher.Prepare fixes once per (site, family, round) and
// every Fetch of that round draws from. It is passed by value.
type Download struct {
	Ref       SiteRef
	Fam       topo.Family
	PageBytes int
	Speed     float64       // the round's mean speed, kbytes/sec
	Setup     time.Duration // per-request setup latency
}

// Fetcher abstracts the network side of monitoring from one vantage.
// A dual-stack visit prepares each family's download once and fetches
// it as often as the stop rule asks, so Prepare holds the per-round
// work (for SimFetcher: the catalogue lookup, the route and the
// round's speed) and Fetch only the per-download noise.
type Fetcher interface {
	// Resolve performs the A/AAAA query phase for a site at a date and
	// attributes its records to origin ASes (as the paper derives them
	// from BGP data); -1 means an unknown or absent origin.
	Resolve(ref SiteRef, date time.Time) (hasA, hasAAAA bool, v4AS, v6AS int, err error)
	// Prepare fixes the site's main-page download over fam for a round;
	// round and tFrac position it in the study. It fails, drawing no
	// randomness, when no download over fam can succeed in the round.
	Prepare(ref SiteRef, fam topo.Family, round int, tFrac float64) (Download, error)
	// Fetch downloads d's page once; rng supplies the sampling
	// randomness owned by the monitor. One download may fail alone.
	Fetch(d Download, rng *rand.Rand) (FetchResult, error)
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
	// Carried counts the visits recorded by growing the site's open
	// DNS run without a query; they are among Sites and never dual.
	Carried int
}

// Monitor runs monitoring rounds from one vantage point.
type Monitor struct {
	cfg   Config
	fetch Fetcher
	db    *store.DB
}

// NewMonitor builds a monitor writing into db.
func NewMonitor(cfg Config, fetch Fetcher, db *store.DB) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if fetch == nil || db == nil {
		return nil, fmt.Errorf("measure: nil fetcher or db")
	}
	return &Monitor{cfg: cfg, fetch: fetch, db: db}, nil
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

// ascending lists the set bits in ascending order.
func (s *destSet) ascending() []int {
	var out []int
	for w, b := range s.bits {
		for b != 0 {
			out = append(out, w<<6+bits.TrailingZeros64(b))
			b &= b - 1
		}
	}
	return out
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
// site stripe, DNS stripe and sample stripe the block's rows fall in
// (sixteen of each for a run of sixteen or more contiguous ids).
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
// walked in slice order through a batch taken from batchPool for it.
//
// A site whose ref has round < Until is carried, not queried: its DNS
// answer and site view at round are the ones it had at round-1 (for
// SimFetcher, both are fixed on each side of the adoption instant,
// and Until is the adoption round), so the store grows the open DNS
// run the round before left. A worker flushes the block's carried
// visits together with the rows of the sites it queried; the store
// hands back each carried visit whose history at the vantage does not
// end right before round, and the worker queries those and flushes
// again. Carried visits are counted in Stats.Carried.
//
// Visit order is not observable in the results: every random draw is
// derived per (seed, round, site), so results do not depend on which
// worker visits a site or when. Stats and the destination-AS set are
// accumulated per worker and merged after the round: the per-site path
// is free of the global mutex the original design serialized every
// worker through.
//
// RunRound returns the round's stats and its destination ASes,
// ascending: the non-negative origins Resolve reported for the round's
// dual-stack sites, which are the sites whose DNS row is dual-stack,
// and the origins their site rows hold. A carried site is never
// dual-stack. The paper read BGP paths toward exactly these ASes after
// each round; core records that snapshot.
func (m *Monitor) RunRound(round int, date time.Time, tFrac float64, sites []SiteRef) (RoundStats, []int) {
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
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					break
				}
				lo := order[k] * bs
				m.visitBlock(sites[lo:min(lo+bs, len(sites))], bs, round, date, tFrac, acc, src, rng)
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
		st.Carried += accs[w].st.Carried
		destASes.merge(&accs[w].dest)
	}
	return st, destASes.ascending()
}

// visitBlock visits one dispatch block of a round (blocks of at most
// bs refs) through a batch it takes from batchPool: it carries the
// refs whose round is below Until and queries the others, flushes, then
// queries the carried visits the store handed back and flushes again.
// The batch goes back to the pool empty after the block's last Flush,
// so the batches alive at once follow the blocks in flight, not the
// workers: core runs one monitor's rounds for several site lists at
// once, so a batch on the Monitor would be shared, and one per worker
// for the round would keep them all live.
func (m *Monitor) visitBlock(block []SiteRef, bs, round int, date time.Time, tFrac float64, acc *roundAcc, src reseeder, rng *rand.Rand) {
	batch, _ := batchPool.Get().(*store.Batch)
	if batch == nil {
		batch = store.NewBatch(bs)
	}
	carried := 0
	for _, ref := range block {
		if round < int(ref.Until) {
			batch.Carry(ref.ID, round)
			carried++
			continue
		}
		m.monitorSite(ref, round, date, tFrac, batch, acc, src, rng)
	}
	back := m.db.Flush(m.cfg.Vantage, batch)
	acc.st.Carried += carried - back
	if back > 0 {
		for _, ref := range block {
			if round < int(ref.Until) && batch.Returned(ref.ID) {
				m.monitorSite(ref, round, date, tFrac, batch, acc, src, rng)
			}
		}
		m.db.Flush(m.cfg.Vantage, batch)
	}
	// Only an empty batch goes back: a Flush that panicked leaves its
	// rows behind, and that batch is dropped.
	batchPool.Put(batch)
}

// batchPool recycles the block batches across blocks, rounds and
// monitors. A batch returns empty, after its block's last Flush, and
// keeps the capacity its buckets grew to, so the sample buckets, which
// start empty, stop growing once they have carried a busy block.
var batchPool sync.Pool

// reseeder is the worker's reusable det source behind rng.
type reseeder interface{ Reseed(parts ...uint64) }

// monitorSite runs the Fig 2 phases for one site, writing its site
// view, DNS row and samples into batch and its counts into acc. Only
// the download phases draw from rng, so src is reseeded per (seed,
// round, site) once the site is known to be dual-stack, sparing the
// single-stack majority.
func (m *Monitor) monitorSite(ref SiteRef, round int, date time.Time, tFrac float64, batch *store.Batch, acc *roundAcc, src reseeder, rng *rand.Rand) {
	hasA, hasAAAA, v4AS, v6AS, err := m.fetch.Resolve(ref, date)
	if err != nil {
		acc.st.FetchFails++
		return
	}
	batch.AddSite(store.CanonicalSite{Site: ref.ID, FirstRank: int(ref.FirstRank), V4AS: v4AS, V6AS: v6AS})
	dns := store.DNSRow{Site: ref.ID, Round: round, HasA: hasA, HasAAAA: hasAAAA}
	if hasA && hasAAAA {
		acc.st.Dual++
		// Only dual-stack sites count as monitored destinations
		// (Table 2's AS coverage is about the dual-monitored
		// population).
		if v4AS >= 0 {
			acc.dest.add(v4AS)
		}
		if v6AS >= 0 {
			acc.dest.add(v6AS)
		}
		src.Reseed(uint64(m.cfg.Seed), uint64(round), uint64(ref.ID), 0xF00D)
		dns.Identical = m.download(ref, round, date, tFrac, batch, acc, rng)
	}
	batch.AddDNS(dns)
}

// download runs the download phases for a dual-stack site and reports
// whether its pages passed the identity check. Each family's download
// is prepared once and then fetched once for the check and as often
// as the stop rule asks.
func (m *Monitor) download(ref SiteRef, round int, date time.Time, tFrac float64, batch *store.Batch, acc *roundAcc, rng *rand.Rand) (identical bool) {
	// Phase 2: single download per family; compare byte counts.
	d4, err4 := m.fetch.Prepare(ref, topo.V4, round, tFrac)
	d6, err6 := m.fetch.Prepare(ref, topo.V6, round, tFrac)
	if err4 != nil || err6 != nil {
		acc.st.FetchFails++
		return false
	}
	first4, err4 := m.fetch.Fetch(d4, rng)
	first6, err6 := m.fetch.Fetch(d6, rng)
	if err4 != nil || err6 != nil {
		acc.st.FetchFails++
		return false
	}
	diff := first4.PageBytes - first6.PageBytes
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > m.cfg.IdentityFrac*float64(first4.PageBytes) {
		return false
	}
	acc.st.Identical++

	// Phase 3: repeat downloads until the CI stop rule, per family
	// ("first for IPv4 and then IPv6, each after proper resetting").
	okBoth := true
	for i, d := range [...]Download{d4, d6} {
		sample, ok := m.converge(d, rng)
		sample.Round = round
		sample.Date = date
		batch.AddSample(ref.ID, famBoth[i], sample)
		okBoth = okBoth && ok
	}
	if okBoth {
		acc.st.Measured++
	}
	return true
}

// converge downloads d until the CI stop rule is met or the budget
// runs out, returning the round sample.
func (m *Monitor) converge(d Download, rng *rand.Rand) (store.Sample, bool) {
	var times stats.Welford
	page := 0
	for i := 0; i < m.cfg.MaxDownloads; i++ {
		res, err := m.fetch.Fetch(d, rng)
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
