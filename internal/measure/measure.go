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
// store in one batch per block, and the batches are recycled across
// rounds.
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

// SiteRef identifies a site to monitor.
type SiteRef struct {
	ID        alexa.SiteID
	FirstRank int
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
// walked in slice order. A worker flushes a block's site rows, DNS
// rows and samples to the store once, at the block's end.
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
// and the origins their site rows hold. The paper read BGP paths
// toward exactly these ASes after each round; core records that
// snapshot.
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
			// The batch holds at most one block and is flushed into the
			// store per block, so the worker never accumulates a round's
			// worth of rows: the single-stack majority collapses into
			// run-length counters immediately. It is the worker's own:
			// core runs one monitor's rounds for several site lists at
			// once, so a batch on the Monitor would be shared.
			batch, _ := batchPool.Get().(*store.Batch)
			if batch == nil {
				batch = store.NewBatch(bs)
			}
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					break
				}
				lo := order[k] * bs
				for _, ref := range sites[lo:min(lo+bs, len(sites))] {
					m.monitorSite(ref, round, date, tFrac, batch, acc, src, rng)
				}
				m.db.Flush(m.cfg.Vantage, batch)
			}
			// Only an empty batch goes back: a Flush that panicked
			// leaves its rows behind, and that batch is dropped.
			batchPool.Put(batch)
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
	return st, destASes.ascending()
}

// batchPool recycles the workers' block batches across rounds and
// monitors. A batch returns empty, after its worker's last Flush, and
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
	batch.AddSite(store.CanonicalSite{Site: ref.ID, FirstRank: ref.FirstRank, V4AS: v4AS, V6AS: v6AS})
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
