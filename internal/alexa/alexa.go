// Package alexa models the ranked web-site list the paper's tool
// monitors: a top-N ranking with round-to-round churn (new sites enter
// mostly in the tail, as the paper observed — churn alone grew the
// monitored set from 1M to over 2M sites in under a year), and the
// IPv6 adoption dynamics of Figures 1 and 3a: adoption probability
// falls with rank, and adoption dates cluster around the IANA
// depletion announcement and World IPv6 Day.
package alexa

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"v6web/internal/det"
)

// SiteID permanently identifies a site across rounds.
type SiteID int64

// HostName maps a site id to its canonical synthetic DNS name. It
// lives here (rather than in the measurement layer) so the store can
// intern site hosts against it: a site whose host is the canonical
// derivation costs no stored string.
func HostName(id SiteID) string {
	// strconv instead of fmt: this runs once per site per round.
	return "site" + strconv.FormatInt(int64(id), 10) + ".v6web.test"
}

// Config parameterizes the list model.
type Config struct {
	Seed          int64
	Size          int     // list size (the paper's "top 1M")
	ChurnPerRound float64 // fraction of slots replaced each round
	TailBias      float64 // 0=uniform churn; 1=churn only in the tail half
}

// DefaultConfig returns a list of the given size with churn matching
// the paper's observation (~2x distinct sites over ~26 rounds).
func DefaultConfig(size int, seed int64) Config {
	return Config{Seed: seed, Size: size, ChurnPerRound: 0.04, TailBias: 0.8}
}

// Validate reports config errors.
func (c Config) Validate() error {
	if c.Size < 1 {
		return fmt.Errorf("alexa: size %d < 1", c.Size)
	}
	if c.ChurnPerRound < 0 || c.ChurnPerRound > 1 {
		return fmt.Errorf("alexa: churn %v out of [0,1]", c.ChurnPerRound)
	}
	if c.TailBias < 0 || c.TailBias > 1 {
		return fmt.Errorf("alexa: tail bias %v out of [0,1]", c.TailBias)
	}
	return nil
}

// Model is the evolving ranked list. It is not safe for concurrent
// mutation.
//
// The model is columnar: site ids are minted densely (0, 1, 2, ...),
// so the per-site first-appearance rank is an int32 column indexed by
// id rather than a map — at 1M ranks the map's hashing and overhead
// dominated both churn time and list memory.
type Model struct {
	cfg       Config
	rng       *rand.Rand
	ranked    []SiteID
	firstRank []int32 // rank (1-based) at first appearance, indexed by id
	round     int
}

// New builds the initial list: site i occupies rank i+1.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		ranked:    make([]SiteID, cfg.Size),
		firstRank: make([]int32, 0, cfg.Size*2),
	}
	for i := range m.ranked {
		m.ranked[i] = m.mint(i + 1)
	}
	return m, nil
}

// mint allocates the next dense site id, recording its first rank.
func (m *Model) mint(rank int) SiteID {
	id := SiteID(len(m.firstRank))
	m.firstRank = append(m.firstRank, int32(rank))
	return id
}

// Round returns the number of completed churn rounds.
func (m *Model) Round() int { return m.round }

// Size returns the list size.
func (m *Model) Size() int { return m.cfg.Size }

// TotalSeen returns how many distinct sites have ever appeared.
func (m *Model) TotalSeen() int { return len(m.firstRank) }

// Ranked returns a copy of the current ranking, best rank first.
func (m *Model) Ranked() []SiteID {
	out := make([]SiteID, len(m.ranked))
	copy(out, m.ranked)
	return out
}

// ForEachRanked visits the current ranking, best rank first, without
// copying it, passing the 1-based rank. The model must not be
// advanced from inside fn.
func (m *Model) ForEachRanked(fn func(rank int, id SiteID)) {
	for i, id := range m.ranked {
		fn(i+1, id)
	}
}

// FirstSeenRank returns the rank a site held when it first appeared,
// or 0 if the site is unknown.
func (m *Model) FirstSeenRank(s SiteID) int {
	if s < 0 || s >= SiteID(len(m.firstRank)) {
		return 0
	}
	return int(m.firstRank[s])
}

// ForEachEntrant visits every site minted at or after sinceID that is
// still on the list, in mint order — the O(new entrants) absorb walk.
// A site minted and churned away again before it was ever observed
// (its first-rank slot was replaced later in the same or a subsequent
// churn round) no longer occupies its first-seen rank and is skipped,
// exactly as a full ranked-list walk would never encounter it.
func (m *Model) ForEachEntrant(sinceID SiteID, fn func(rank int, id SiteID)) {
	if sinceID < 0 {
		sinceID = 0
	}
	for id := sinceID; id < SiteID(len(m.firstRank)); id++ {
		rank := int(m.firstRank[id])
		if m.ranked[rank-1] == id {
			fn(rank, id)
		}
	}
}

// Advance performs one churn round: ChurnPerRound of the slots are
// replaced by never-before-seen sites, preferentially in the tail.
func (m *Model) Advance() {
	m.round++
	n := int(m.cfg.ChurnPerRound * float64(m.cfg.Size))
	for k := 0; k < n; k++ {
		var pos int
		if m.rng.Float64() < m.cfg.TailBias {
			// Tail half.
			pos = m.cfg.Size/2 + m.rng.Intn(m.cfg.Size-m.cfg.Size/2)
		} else {
			pos = m.rng.Intn(m.cfg.Size)
		}
		m.ranked[pos] = m.mint(pos + 1)
	}
}

// Bucket labels for Fig 3a rank buckets.
var bucketEdges = []int{10, 100, 1000, 10000, 100000, 1000000}

// BucketLabels names the Fig 3a rank buckets.
var BucketLabels = []string{"Top 10", "Top 100", "Top 1k", "Top 10k", "Top 100k", "Top 1M"}

// RankBucket maps a 1-based rank to a Fig 3a bucket index (0..5).
// Ranks beyond 1M clamp to the last bucket.
func RankBucket(rank int) int {
	for i, e := range bucketEdges {
		if rank <= e {
			return i
		}
	}
	return len(bucketEdges) - 1
}

// Timeline fixes the study's calendar, matching the paper's events.
type Timeline struct {
	Start time.Time // monitoring start (Fig 1 begins 2010-12-09)
	IANA  time.Time // IANA IPv4 pool depletion announcement
	V6Day time.Time // World IPv6 Day
	End   time.Time // end of the reported window
}

// DefaultTimeline returns the paper's dates.
func DefaultTimeline() Timeline {
	d := func(y int, m time.Month, day int) time.Time {
		return time.Date(y, m, day, 0, 0, 0, 0, time.UTC)
	}
	return Timeline{
		Start: d(2010, time.December, 9),
		IANA:  d(2011, time.February, 3),
		V6Day: d(2011, time.June, 8),
		End:   d(2011, time.August, 11),
	}
}

// Adoption decides, deterministically per site, whether and when a
// site becomes IPv6-accessible. Final adoption probability depends on
// the site's first-seen rank (Fig 3a); the adoption date distribution
// reproduces Fig 1's two jumps.
type Adoption struct {
	Seed     int64
	Timeline Timeline

	// RankScale maps model ranks onto real-world ranks when a scaled
	// list stands in for the top 1M: with a 20k-site list,
	// RankScale=50 makes rank r behave like real rank 50r, so
	// aggregate reachability matches Fig 1's ~1% instead of the
	// higher head-of-list rate. Zero means 1 (no scaling).
	RankScale float64

	// FinalFrac holds the end-of-study adoption fraction per rank
	// bucket (Fig 3a shape). Index parallels BucketLabels.
	FinalFrac [6]float64

	// Date-mass split of adopters: before the study, at the IANA
	// jump, gradually in between, at World IPv6 Day, and gradually
	// after. Must sum to ~1.
	PreStudy, AtIANA, Gradual, AtV6Day, Late float64

	// probSums memoizes the Fig 3a per-bucket mean adoption
	// probabilities (the rank integral, which is independent of the
	// query date), keyed by the FinalFrac profile they were computed
	// for.
	probSums      [6]float64
	probSumsFor   [6]float64
	probSumsValid bool
}

// NewAdoption returns the calibrated adoption model.
func NewAdoption(seed int64, tl Timeline) *Adoption {
	return &Adoption{
		Seed:      seed,
		Timeline:  tl,
		FinalFrac: [6]float64{0.10, 0.055, 0.04, 0.025, 0.016, 0.011},
		PreStudy:  0.22,
		AtIANA:    0.12,
		Gradual:   0.14,
		AtV6Day:   0.42,
		Late:      0.10,
	}
}

// adoptProb interpolates the final adoption probability by log-rank
// between bucket edges, so adoption falls smoothly with rank.
func (a *Adoption) adoptProb(firstRank int) float64 {
	if firstRank < 1 {
		firstRank = 1
	}
	r := float64(firstRank)
	if a.RankScale > 0 {
		r *= a.RankScale
	}
	lr := math.Log10(r)
	// Bucket i covers log-rank (i-1, i]; edges at 1,2,...,6.
	switch {
	case lr <= 1:
		return a.FinalFrac[0]
	case lr >= 6:
		return a.FinalFrac[5]
	}
	lo := int(lr) // 1..5
	frac := lr - float64(lo)
	return a.FinalFrac[lo-1]*(1-frac) + a.FinalFrac[lo]*frac
}

// DateMass returns the fraction of eventual adopters that have
// adopted by time t (the cumulative adoption-date distribution).
func (a *Adoption) DateMass(t time.Time) float64 {
	tl := a.Timeline
	mass := 0.0
	if !t.Before(tl.Start) {
		mass += a.PreStudy
	}
	if !t.Before(tl.IANA) {
		mass += a.AtIANA
	}
	if span := tl.V6Day.Sub(tl.IANA); span > 0 && t.After(tl.IANA) {
		f := float64(t.Sub(tl.IANA)) / float64(span)
		if f > 1 {
			f = 1
		}
		mass += a.Gradual * f
	}
	if !t.Before(tl.V6Day) {
		mass += a.AtV6Day
	}
	if span := tl.End.Sub(tl.V6Day); span > 0 && t.After(tl.V6Day) {
		f := float64(t.Sub(tl.V6Day)) / float64(span)
		if f > 1 {
			f = 1
		}
		mass += a.Late * f
	}
	total := a.PreStudy + a.AtIANA + a.Gradual + a.AtV6Day + a.Late
	if total <= 0 {
		return 0
	}
	return mass / total
}

// ExpectedBucketReachability computes the Fig 3a bars analytically:
// the mean reachability over each cumulative real-rank prefix
// (Top 10 … Top 1M) at time t, ignoring RankScale (ranks here are
// real-world ranks). The date mass factors out of the rank integral,
// so the million-rank prefix sums are computed once per FinalFrac
// profile and memoized; repeated calls (every report renders Fig 3a)
// only pay one DateMass evaluation.
func (a *Adoption) ExpectedBucketReachability(t time.Time) [6]float64 {
	if !a.probSumsValid || a.probSumsFor != a.FinalFrac {
		unscaled := *a
		unscaled.RankScale = 1
		sum := 0.0
		next := 0
		for r := 1; r <= bucketEdges[len(bucketEdges)-1]; r++ {
			sum += unscaled.adoptProb(r)
			if next < len(bucketEdges) && r == bucketEdges[next] {
				a.probSums[next] = sum / float64(r)
				next++
			}
		}
		a.probSumsFor = a.FinalFrac
		a.probSumsValid = true
	}
	mass := a.DateMass(t)
	var out [6]float64
	for i, mean := range a.probSums {
		out[i] = mean * mass
	}
	return out
}

// Adopts reports whether the site ever becomes IPv6-accessible and,
// if so, when. The decision is a pure function of (seed, site,
// firstRank).
func (a *Adoption) Adopts(s SiteID, firstRank int) (time.Time, bool) {
	u := det.Float(uint64(a.Seed), uint64(s), 0xADC0)
	if u >= a.adoptProb(firstRank) {
		return time.Time{}, false
	}
	// Which date regime? Reuse an independent hash.
	w := det.Float(uint64(a.Seed), uint64(s), 0xDA7E)
	tl := a.Timeline
	switch {
	case w < a.PreStudy:
		return tl.Start.Add(-24 * time.Hour), true
	case w < a.PreStudy+a.AtIANA:
		return tl.IANA, true
	case w < a.PreStudy+a.AtIANA+a.Gradual:
		span := tl.V6Day.Sub(tl.IANA)
		frac := det.Float(uint64(a.Seed), uint64(s), 0x0FFE)
		return tl.IANA.Add(time.Duration(frac * float64(span))), true
	case w < a.PreStudy+a.AtIANA+a.Gradual+a.AtV6Day:
		return tl.V6Day, true
	default:
		span := tl.End.Sub(tl.V6Day)
		frac := det.Float(uint64(a.Seed), uint64(s), 0x1A7E)
		return tl.V6Day.Add(time.Duration(frac * float64(span))), true
	}
}

// IsV6At reports whether the site is IPv6-accessible at time t.
func (a *Adoption) IsV6At(s SiteID, firstRank int, t time.Time) bool {
	when, ok := a.Adopts(s, firstRank)
	return ok && !t.Before(when)
}

// ReachabilitySeries computes the Fig 1 curve: the fraction of the
// given ranked list that is IPv6-accessible at each date. Dates must
// be ascending (round dates are). Each site's adoption date is
// resolved once and bucketed into the first date at or past it — one
// Adopts evaluation per site instead of one IsV6At per (site, date)
// pair — which is exactly equivalent because adoption is permanent.
func (a *Adoption) ReachabilitySeries(ranked []SiteID, firstRank func(SiteID) int, dates []time.Time) []float64 {
	out := make([]float64, len(dates))
	if len(ranked) == 0 || len(dates) == 0 {
		return out
	}
	adds := make([]int, len(dates))
	for _, s := range ranked {
		when, ok := a.Adopts(s, firstRank(s))
		if !ok {
			continue
		}
		// First date index with dates[di] >= when.
		di := sort.Search(len(dates), func(i int) bool { return !dates[i].Before(when) })
		if di < len(dates) {
			adds[di]++
		}
	}
	n := 0
	for di := range dates {
		n += adds[di]
		out[di] = float64(n) / float64(len(ranked))
	}
	return out
}

// ReachabilityByBucket computes the Fig 3a bars: for each cumulative
// rank prefix (Top 10, Top 100, … Top 1M) the fraction of those sites
// that are IPv6-accessible at t. Buckets larger than the list reuse
// the whole list.
func (a *Adoption) ReachabilityByBucket(ranked []SiteID, firstRank func(SiteID) int, t time.Time) [6]float64 {
	var out [6]float64
	hits := 0
	next := 0
	for i, s := range ranked {
		if a.IsV6At(s, firstRank(s), t) {
			hits++
		}
		for next < len(bucketEdges) && i+1 == min(bucketEdges[next], len(ranked)) {
			out[next] = float64(hits) / float64(i+1)
			next++
		}
	}
	// Any remaining buckets (list shorter than the edge) equal the
	// whole-list fraction.
	for ; next < len(bucketEdges); next++ {
		if len(ranked) > 0 {
			out[next] = float64(hits) / float64(len(ranked))
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
