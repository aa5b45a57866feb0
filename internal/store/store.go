// Package store is the measurement result database standing in for
// the paper's MySQL backend: per-vantage tables of DNS results,
// per-round download samples, AS-path snapshots, and site metadata,
// with query helpers the analysis pipeline scans. For the common
// repository ("aggregated at Penn") role it persists as one file per
// database, the binary snapshot (SaveBinary, read back by Load), which
// checkpoints and finished campaigns share; CSV (Save) is only an
// export.
//
// Writes are the monitoring hot path: 25 workers per vantage write
// site rows, DNS rows and samples concurrently for every site of every
// round, or carry a site's open DNS run forward by the round, each
// worker buffering a block of sites in a Batch that one Flush applies.
// The database therefore shards its locks by site id instead of
// funneling every worker through one RWMutex, and a Flush takes each
// stripe's lock once per block.
//
// # Memory layout
//
// A paper-scale campaign (a 1M-site list, a 5M-site extended
// population, 35 rounds, six vantages) stores on the order of 2*10^8
// DNS outcomes; one struct per outcome is gigabytes before the first
// exhibit renders. The database is therefore columnar:
//
//   - Site ids are dense in two ranges — the ranked list mints them
//     sequentially from zero, the extended population is a second
//     dense range at a fixed base — and Reserve turns those ranges
//     into index-addressed tables. A vantage's DNS and sample columns
//     over a range are allocated by each lock stripe's first write
//     into it, so a vantage that never measures the extended
//     population holds no column for it. Ids outside the reserved
//     ranges (direct API use, a database that reserves none, a
//     snapshot whose claimed ranges its bytes cannot back) fall back
//     to per-shard overflow maps.
//   - DNS history is delta-encoded: each site stores runs of
//     consecutive rounds sharing one (HasA, HasAAAA, Identical)
//     outcome, so storage is O(state changes), not O(sites*rounds).
//     Two runs live inline per site (adoption is the one transition
//     almost every site ever has); rarer histories spill to a side
//     map. The iterators expand runs back to per-round rows, so CSV
//     output is byte-identical to the old row-per-round log.
//   - Samples are packed 24-byte records; the sample date — shared by
//     every sample of a round — lives once in a per-vantage date
//     dictionary instead of as a per-sample time.Time.
//   - Site rows store three int32 columns per site; the Host column
//     is interned against the canonical alexa.HostName derivation and
//     materialized only for sites whose host actually differs.
package store

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// Vantage identifies a monitoring vantage point by name.
type Vantage string

// SiteRow is the catalogue entry the monitor learns about a site.
type SiteRow struct {
	Site      alexa.SiteID
	Host      string
	FirstRank int
	V4AS      int // origin AS of the A record (-1 unknown)
	V6AS      int // origin AS of the AAAA record (-1 unknown/none)
}

// DNSRow is the outcome of one round's A/AAAA query phase.
type DNSRow struct {
	Site      alexa.SiteID
	Round     int
	HasA      bool
	HasAAAA   bool
	Identical bool // v4/v6 page byte counts within the identity threshold
}

// Sample is one round's converged download measurement for one family.
type Sample struct {
	Round     int
	Date      time.Time
	PageBytes int
	Downloads int     // downloads needed to satisfy the CI stop rule
	MeanSpeed float64 // kbytes/sec
	CIOK      bool    // stop rule satisfied within the download budget
}

// PathSnapshot is the AS path to a destination AS observed after a
// round.
type PathSnapshot struct {
	Round int
	Path  []int // dense AS indices, vantage first
}

// shardBits sets the lock-striping factor (shards = 1<<shardBits).
// A site id's shard is id&(shards-1); its slot within a dense range
// is id>>shardBits (offset by the range base for the extended range),
// so a (shard, slot) pair maps back to id = slot<<shardBits | shard.
const (
	shardBits = 4
	shards    = 1 << shardBits
)

// reservation describes the dense id ranges Reserve has declared.
type reservation struct {
	main    int          // ids [0, main) are dense
	extBase alexa.SiteID // base of the extended range (0 = none)
	ext     int          // ids [extBase, extBase+ext) are dense
}

// locate classifies id against the reservation: which dense table it
// belongs to (0 main, 1 ext, -1 overflow) and its slot index.
func (r reservation) locate(id alexa.SiteID) (table int, slot int) {
	if id >= 0 && id < alexa.SiteID(r.main) {
		return 0, int(id >> shardBits)
	}
	if r.ext > 0 && id >= r.extBase && id < r.extBase+alexa.SiteID(r.ext) {
		return 1, int((id - r.extBase) >> shardBits)
	}
	return -1, 0
}

// slotsFor returns how many per-shard slots cover n dense ids.
func slotsFor(n int) int { return (n + shards - 1) >> shardBits }

// extend returns col grown to n entries, the new tail set to fill, in
// one allocation step. Capacity grows as append's does, so a range
// that grows a little every round (the main list's) stays amortized,
// while a first reservation is allocated at its exact size. The grown
// tail arrives zeroed, so a zero fill writes nothing more.
func extend[T comparable](col []T, n int, fill T) []T {
	old := len(col)
	if n <= old {
		return col
	}
	col = slices.Grow(col, n-old)[:n]
	var zero T
	if fill != zero {
		for i := old; i < n; i++ {
			col[i] = fill
		}
	}
	return col
}

// --- DNS delta encoding ----------------------------------------------

// dnsRun is one run of consecutive rounds sharing a DNS outcome:
// rounds [start, start+count) all observed state.
type dnsRun struct {
	start int32
	count int32
	state uint8
}

const (
	dnsHasA      = 1 << 0
	dnsHasAAAA   = 1 << 1
	dnsIdentical = 1 << 2
	// dnsSpilled on the second inline run marks that further runs live
	// in the shard's spill map.
	dnsSpilled = 1 << 7

	dnsStateMask = dnsHasA | dnsHasAAAA | dnsIdentical
)

func dnsState(hasA, hasAAAA, identical bool) uint8 {
	var s uint8
	if hasA {
		s |= dnsHasA
	}
	if hasAAAA {
		s |= dnsHasAAAA
	}
	if identical {
		s |= dnsIdentical
	}
	return s
}

func (r dnsRun) row(site alexa.SiteID, k int32) DNSRow {
	return DNSRow{
		Site:      site,
		Round:     int(r.start + k),
		HasA:      r.state&dnsHasA != 0,
		HasAAAA:   r.state&dnsHasAAAA != 0,
		Identical: r.state&dnsIdentical != 0,
	}
}

// dnsHist is a site's inline run storage: the first two runs (almost
// every site needs at most two — single-stack forever, or one
// adoption transition) live here; further runs spill.
type dnsHist struct {
	run [2]dnsRun
}

// append records n observations of state at rounds [round, round+n),
// returning how the history grew: spill=true means the new run must go
// to the shard's spill list. ok=false means the observations do not
// extend the history (round precedes its end, a duplicate round
// included) and nothing was recorded.
func (h *dnsHist) append(spillRuns []dnsRun, round, n int32, state uint8) (newRun dnsRun, spill, ok bool) {
	if h.run[0].count == 0 {
		h.run[0] = dnsRun{start: round, count: n, state: state}
		return dnsRun{}, false, true
	}
	last := h.newest(spillRuns)
	end := last.start + last.count
	switch {
	case round == end && state == last.state&dnsStateMask:
		last.count += n
		return dnsRun{}, false, true
	case round >= end:
		nr := dnsRun{start: round, count: n, state: state}
		if h.run[1].count == 0 && h.run[1].state&dnsSpilled == 0 {
			h.run[1] = nr
			return dnsRun{}, false, true
		}
		h.run[1].state |= dnsSpilled
		return nr, true, true
	default:
		return dnsRun{}, false, false
	}
}

// newest returns the site's newest run where it is stored, for append
// and carry to grow it in place: its state may hold the spill flag.
// spill is the site's spill list. The history must be non-empty.
func (h *dnsHist) newest(spill []dnsRun) *dnsRun {
	switch {
	case h.run[1].state&dnsSpilled != 0 && len(spill) > 0:
		return &spill[len(spill)-1]
	case h.run[1].count != 0:
		return &h.run[1]
	}
	return &h.run[0]
}

// last returns the site's newest run (state without the spill flag);
// spill is the site's spill list. The history must be non-empty.
func (h *dnsHist) last(spill []dnsRun) dnsRun {
	r := *h.newest(spill)
	r.state &= dnsStateMask
	return r
}

// runs appends the site's full run list (inline plus spill) to buf.
func (h *dnsHist) runs(spill []dnsRun, buf []dnsRun) []dnsRun {
	if h.run[0].count == 0 {
		return buf
	}
	buf = append(buf, h.run[0])
	if h.run[1].count != 0 {
		r := h.run[1]
		r.state &= dnsStateMask
		buf = append(buf, r)
	}
	if h.run[1].state&dnsSpilled != 0 {
		buf = append(buf, spill...)
	}
	return buf
}

// dnsShard is one stripe of a vantage's delta-encoded DNS table.
type dnsShard struct {
	mu    sync.Mutex                //v6lint:shardlock one stripe of the site-id striped DNS table
	main  []dnsHist                 //v6lint:guardedby mu
	ext   []dnsHist                 //v6lint:guardedby mu
	spill map[alexa.SiteID][]dnsRun //v6lint:guardedby mu
	over  map[alexa.SiteID]*dnsHist //v6lint:guardedby mu
	rows  int                       //v6lint:guardedby mu
	// rows counts observations in this shard. lo and hi are the
	// shard's round watermarks (see watermark).
	lo int32 //v6lint:guardedby mu
	hi int32 //v6lint:guardedby mu
}

// noLow is a low watermark that no append has lowered yet.
const noLow = math.MaxInt32

// watermark tracks the rounds a table stripe has stored, for the
// checkpoint chain (chain.go): lo is the lowest round appended since
// the last checkpoint mark (noLow when none), hi the highest round
// ever stored (-1 when none). Keeping them costs two compares per
// append.
func watermark(lo, hi *int32, from, to int32) {
	if from < *lo {
		*lo = from
	}
	if to > *hi {
		*hi = to
	}
}

// denseAt returns slot's entry in col, a stripe's dense column over a
// reserved range of n ids. The stripe's first write into the range
// (create set) allocates the column at the range's full length, the
// entries set to fill; before it, the column is empty and denseAt
// returns nil. Reserve keeps every allocated column at full length.
func denseAt[S ~[]T, T comparable](col *S, n, slot int, fill T, create bool) *T {
	if len(*col) == 0 {
		if !create {
			return nil
		}
		*col = extend(*col, slotsFor(n), fill)
	}
	return &(*col)[slot]
}

// hist returns the site's history slot, allocating its dense column or
// creating its overflow entry on demand when create is set, and nil
// when the site has none and create is unset. Caller holds s.mu.
func (s *dnsShard) hist(res reservation, id alexa.SiteID, create bool) *dnsHist {
	switch table, slot := res.locate(id); table {
	case 0:
		return denseAt(&s.main, res.main, slot, dnsHist{}, create)
	case 1:
		return denseAt(&s.ext, res.ext, slot, dnsHist{}, create)
	}
	if h, ok := s.over[id]; ok {
		return h
	}
	if !create {
		return nil
	}
	if s.over == nil {
		s.over = make(map[alexa.SiteID]*dnsHist)
	}
	h := &dnsHist{}
	s.over[id] = h
	return h
}

// end returns the round site id's history h ends before: one past its
// last stored round, or math.MinInt32 (before every round) when it
// holds none. Caller holds s.mu.
func (s *dnsShard) end(h *dnsHist, id alexa.SiteID) int32 {
	if h.run[0].count == 0 {
		return math.MinInt32
	}
	var spill []dnsRun
	if h.run[1].state&dnsSpilled != 0 {
		spill = s.spill[id]
	}
	last := h.last(spill)
	return last.start + last.count
}

// add records one DNS observation. A row that does not extend its
// site's history is not recorded: ok is false and end is the round the
// history ends before. Caller holds s.mu.
func (s *dnsShard) add(res reservation, row DNSRow) (end int32, ok bool) {
	return s.addRun(s.hist(res, row.Site, true), row.Site, int32(row.Round), 1, dnsState(row.HasA, row.HasAAAA, row.Identical))
}

// addRun records n observations of state at rounds [round, round+n)
// for site, whose history slot is h. Observations that do not extend
// the history are not recorded: ok is false and end is the round the
// history ends before. Caller holds s.mu.
func (s *dnsShard) addRun(h *dnsHist, site alexa.SiteID, round, n int32, state uint8) (end int32, ok bool) {
	if end, ok = s.growHist(h, site, round, n, state); ok {
		watermark(&s.lo, &s.hi, round, round+n-1)
		s.rows += int(n)
	}
	return end, ok
}

// growHist is addRun without the stripe's row count and watermarks,
// which the caller keeps: the section decoder counts a site's runs
// once. Caller holds s.mu.
func (s *dnsShard) growHist(h *dnsHist, site alexa.SiteID, round, n int32, state uint8) (end int32, ok bool) {
	var spillRuns []dnsRun
	if h.run[1].state&dnsSpilled != 0 {
		spillRuns = s.spill[site]
	}
	nr, spill, ok := h.append(spillRuns, round, n, state)
	if !ok {
		last := h.last(spillRuns)
		return last.start + last.count, false
	}
	if spill {
		if s.spill == nil {
			s.spill = make(map[alexa.SiteID][]dnsRun)
		}
		s.spill[site] = append(s.spill[site], nr)
	}
	return 0, true
}

// inStripe returns the first id of c in stripe (the stripe's index)
// and how many of c's ids the stripe holds, one every shards ids.
func (c idRun) inStripe(stripe uint64) (first alexa.SiteID, count int) {
	k, n := (stripe-uint64(c.lo))&(shards-1), uint64(c.end-c.lo)
	if k >= n {
		return 0, 0
	}
	return c.lo + alexa.SiteID(k), int((n - k + shards - 1) / shards)
}

// carryRun records the carried visits at round of the ids of c in
// this stripe (stripe is its index), appending those it hands back to
// back in id order. A carried visit is recorded as one more
// observation of the site's newest run's state, exactly what add
// records for a row equal to the site's last one at round, when the
// site's history ends right before round; otherwise (no history, a gap
// before round, or a history that already reaches round) nothing is
// recorded and the id is handed back. Caller holds s.mu.
func (s *dnsShard) carryRun(res reservation, stripe uint64, c idRun, round int32, back []alexa.SiteID) []alexa.SiteID {
	first, count := c.inStripe(stripe)
	// The stripe's ids of a run inside one dense range sit in
	// consecutive slots of its column.
	var dense []dnsHist
	if table, slot := res.locate(first); count > 0 && table >= 0 {
		if last, _ := res.locate(first + alexa.SiteID(count-1)*shards); last == table {
			col := s.main
			if table == 1 {
				col = s.ext
			}
			if len(col) > 0 {
				dense = col[slot : slot+count]
			}
		}
	}
	applied := 0
	for j := 0; j < count; j++ {
		id := first + alexa.SiteID(j)*shards
		var h *dnsHist
		if dense != nil {
			h = &dense[j]
		} else {
			h = s.hist(res, id, false)
		}
		var grown bool
		switch {
		case h == nil:
		case h.run[1].state&dnsSpilled == 0:
			grown = h.extend(round) // inlined: the common history spills nothing
		default:
			grown = s.extendSpilled(h, id, round)
		}
		if grown {
			applied++
		} else {
			back = append(back, id)
		}
	}
	if applied > 0 {
		watermark(&s.lo, &s.hi, round, round)
		s.rows += applied
	}
	return back
}

// extend adds one observation at round to the newest run of a history
// whose runs all live inline when the history ends right before round,
// and reports whether it did. Caller holds the stripe's lock and counts
// the observation.
func (h *dnsHist) extend(round int32) bool {
	last := &h.run[1]
	if last.count == 0 {
		last = &h.run[0]
	}
	if last.count == 0 || last.start+last.count != round {
		return false
	}
	last.count++
	return true
}

// extendSpilled is extend for id's history h, whose newest runs live in
// the stripe's spill map. Caller holds s.mu.
func (s *dnsShard) extendSpilled(h *dnsHist, id alexa.SiteID, round int32) bool {
	last := h.newest(s.spill[id])
	if last.start+last.count != round {
		return false
	}
	last.count++
	return true
}

// errDNSOrder describes a DNS row at vantage v that does not extend
// its site's history, which ends before round end: its round is a
// duplicate of the history's last or earlier. The monitor appends each
// site's rounds in order, so a writer handed such a row panics with
// it.
func errDNSOrder(v Vantage, site alexa.SiteID, round, end int32) error {
	return fmt.Errorf("vantage %q site %d round %d does not extend the site's DNS history, which ends at round %d", v, site, round, end-1)
}

// errRound describes a row at vantage v, for what (a site, a path
// key), whose round lies outside [0, maxRound): the rounds the section
// codec carries, so the rounds a snapshot can hold. Monitors number
// rounds from 0, so a writer handed such a row panics with it instead
// of storing what no saved snapshot would load.
func errRound(v Vantage, what string, round int) error {
	return fmt.Errorf("vantage %q %s round %d outside [0, %d), the rounds a snapshot carries", v, what, round, maxRound)
}

// dnsErr describes a DNS row at vantage v whose round or site id a
// snapshot cannot carry.
func dnsErr(v Vantage, row DNSRow) error {
	if uint(row.Round) >= maxRound {
		return errRound(v, fmt.Sprintf("site %d", row.Site), row.Round)
	}
	return fmt.Errorf("vantage %q site %d %w", v, row.Site, outside("id", int64(row.Site), 0, int64(snapAllSites-1)))
}

// maxField bounds the 32-bit fields a snapshot carries: origin ASes lie
// in [-1, maxField-1] (stored plus one), the others in [0, maxField].
const maxField = math.MaxInt32

// The sample dates Unix nanoseconds cover.
var minDate, maxDate = time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)

// outside reports field's value outside [lo, hi], or nil. The section
// codec carries back only values inside, so a writer handed one
// outside panics with it, as with errRound, instead of storing what a
// saved snapshot would not load, or would load changed.
func outside(field string, value, lo, hi int64) error {
	if lo <= value && value <= hi {
		return nil
	}
	return fmt.Errorf("%s %d outside [%d, %d], the values a snapshot carries", field, value, lo, hi)
}

// siteErr reports the fields of a site row a snapshot cannot carry.
func siteErr(id alexa.SiteID, firstRank, v4, v6 int) error {
	if uint64(id) < uint64(snapAllSites) && uint(firstRank) <= maxField && uint(v4+1) <= maxField && uint(v6+1) <= maxField {
		return nil
	}
	return errors.Join(outside("id", int64(id), 0, int64(snapAllSites-1)), outside("first_rank", int64(firstRank), 0, maxField),
		outside("v4_as", int64(v4), -1, maxField-1), outside("v6_as", int64(v6), -1, maxField-1))
}

// sampleErr reports the fields of a sample a snapshot cannot carry.
func sampleErr(site alexa.SiteID, fam topo.Family, s Sample) error {
	dateOK := !s.Date.Before(minDate) && !s.Date.After(maxDate)
	if uint64(site) < uint64(snapAllSites) && uint(fam) <= 1 && uint(s.PageBytes) <= maxField && uint(s.Downloads) <= maxField && dateOK {
		return nil
	}
	err := errors.Join(outside("id", int64(site), 0, int64(snapAllSites-1)), outside("family", int64(fam), 0, 1),
		outside("page_bytes", int64(s.PageBytes), 0, maxField), outside("downloads", int64(s.Downloads), 0, maxField))
	if !dateOK {
		err = errors.Join(err, fmt.Errorf("date %v outside [%v, %v], the dates a snapshot carries", s.Date, minDate.UTC(), maxDate.UTC()))
	}
	return err
}

// sampleRowErr reports why a snapshot cannot carry sample s of (site,
// fam) at vantage v: a round outside [0, maxRound), or sampleErr. It
// returns nil for a sample a writer may store.
func sampleRowErr(v Vantage, site alexa.SiteID, fam topo.Family, s Sample) error {
	if uint(s.Round) >= maxRound {
		return errRound(v, fmt.Sprintf("site %d family %d", site, fam), s.Round)
	}
	if err := sampleErr(site, fam, s); err != nil {
		return fmt.Errorf("vantage %q site %d family %d %w", v, site, fam, err)
	}
	return nil
}

// --- packed samples --------------------------------------------------

// packedSample is the 24-byte stored form of a Sample: the date is an
// index into the vantage's date dictionary, and the CI flag rides the
// top bit of the download count.
type packedSample struct {
	round   int32
	dateIdx int32
	page    int32
	dlCI    uint32
	speed   float64
}

const ciOKBit = 1 << 31

func packSample(s Sample, dateIdx int32) packedSample {
	dl := uint32(s.Downloads)
	if s.CIOK {
		dl |= ciOKBit
	}
	return packedSample{
		round:   int32(s.Round),
		dateIdx: dateIdx,
		page:    int32(s.PageBytes),
		dlCI:    dl,
		speed:   s.MeanSpeed,
	}
}

func (p packedSample) sample(dates []time.Time) Sample {
	return Sample{
		Round:     int(p.round),
		Date:      dates[p.dateIdx],
		PageBytes: int(p.page),
		Downloads: int(p.dlCI &^ ciOKBit),
		MeanSpeed: p.speed,
		CIOK:      p.dlCI&ciOKBit != 0,
	}
}

// famSlots maps dense site slots to series indices; -1 = no series.
type famSlots []int32

// sampleShard is one stripe of a vantage's sample table: per family,
// a dense slot column over each reserved range (plus an overflow map)
// pointing into the shard-local series storage.
type sampleShard struct {
	mu     sync.Mutex                //v6lint:shardlock one stripe of the site-id striped sample table
	main   [2]famSlots               //v6lint:guardedby mu
	ext    [2]famSlots               //v6lint:guardedby mu
	over   [2]map[alexa.SiteID]int32 //v6lint:guardedby mu
	series [][]packedSample          //v6lint:guardedby mu
	owner  []siteFamKey              //v6lint:guardedby mu
	rows   int                       //v6lint:guardedby mu
	lo     int32                     //v6lint:guardedby mu
	hi     int32                     //v6lint:guardedby mu
	// owner[i] is the (site, family) series[i] belongs to, so readers
	// walk the series instead of every reserved slot. lo and hi are
	// the sample rounds' watermarks (see watermark).
}

// denseSlot returns (id, fam)'s entry in the stripe's dense slot
// column, allocating the column when create is set (see denseAt), and
// whether id lies in a reserved range at all. Caller holds s.mu.
func (s *sampleShard) denseSlot(res reservation, id alexa.SiteID, fam topo.Family, create bool) (entry *int32, dense bool) {
	switch table, slot := res.locate(id); table {
	case 0:
		return denseAt(&s.main[fam], res.main, slot, -1, create), true
	case 1:
		return denseAt(&s.ext[fam], res.ext, slot, -1, create), true
	}
	return nil, false
}

// seriesIdx returns the series index stored for (id, fam), or -1.
// Caller holds s.mu.
func (s *sampleShard) seriesIdx(res reservation, id alexa.SiteID, fam topo.Family) int32 {
	if entry, dense := s.denseSlot(res, id, fam, false); dense {
		if entry == nil {
			return -1
		}
		return *entry
	}
	if idx, ok := s.over[fam][id]; ok {
		return idx
	}
	return -1
}

// add appends one packed sample to the site's series, minting the
// series slot on first use with room for newCap samples. Caller holds
// s.mu.
func (s *sampleShard) add(res reservation, id alexa.SiteID, fam topo.Family, p packedSample, newCap int) {
	entry, dense := s.denseSlot(res, id, fam, true)
	idx := int32(-1)
	if dense {
		idx = *entry
	} else if i, ok := s.over[fam][id]; ok {
		idx = i
	}
	if idx < 0 {
		idx = int32(len(s.series))
		s.series = append(s.series, make([]packedSample, 0, newCap))
		s.owner = append(s.owner, siteFamKey{id, fam})
		if dense {
			*entry = idx
		} else {
			if s.over[fam] == nil {
				s.over[fam] = make(map[alexa.SiteID]int32)
			}
			s.over[fam][id] = idx
		}
	}
	s.series[idx] = append(s.series[idx], p)
	s.rows++
	watermark(&s.lo, &s.hi, p.round, p.round)
}

// --- site rows -------------------------------------------------------

// siteCols is the columnar site-row storage for one dense range within
// one shard.
type siteCols struct {
	present   []bool
	firstRank []int32
	v4        []int32
	v6        []int32
	// dirty has one bit per slot: the row was written since the last
	// checkpoint mark (chain.go).
	dirty []uint64
}

func (c *siteCols) grow(n int) {
	c.present = extend(c.present, n, false)
	c.firstRank = extend(c.firstRank, n, 0)
	c.v4 = extend(c.v4, n, 0)
	c.v6 = extend(c.v6, n, 0)
	c.dirty = extend(c.dirty, (n+63)>>6, 0)
}

// touch sets slot's dirty bit.
func (c *siteCols) touch(slot int) { c.dirty[slot>>6] |= 1 << (slot & 63) }

// siteShard is one stripe of the site-row table. Hosts equal to the
// canonical alexa.HostName derivation are not stored; hostOver holds
// the exceptions.
type siteShard struct {
	mu       sync.Mutex               //v6lint:shardlock one stripe of the site-id striped site table
	main     siteCols                 //v6lint:guardedby mu
	ext      siteCols                 //v6lint:guardedby mu
	over     map[alexa.SiteID]SiteRow //v6lint:guardedby mu
	hostOver map[alexa.SiteID]string  //v6lint:guardedby mu
	n        int                      //v6lint:guardedby mu
	// n counts present rows in the dense ranges.
}

// DB is an in-memory measurement database safe for concurrent use.
// Reserve declares the dense id ranges (see the package comment);
// it must not run concurrently with any other call.
type DB struct {
	res reservation

	sites [shards]siteShard

	vmu      sync.RWMutex
	vantages map[Vantage]*vantageTable //v6lint:guardedby vmu

	// mergeMu guards merged: the shard ranges MergeShard has already
	// landed per (section, vantage), kept for its overlap assertion.
	mergeMu sync.Mutex
	merged  map[mergeKey][]mergeRange //v6lint:guardedby mergeMu

	// markGen is bumped by each checkpoint mark: a checkpoint chain
	// continues this database only while markGen is still the one its
	// last commit took (chain.go).
	markGen atomic.Uint64
}

// vantageTable holds one vantage's measurement tables, striped by
// site id.
type vantageTable struct {
	dns     [shards]dnsShard
	samples [shards]sampleShard

	pathMu sync.Mutex
	paths  map[famDstKey][]PathSnapshot //v6lint:guardedby pathMu
	pathLo int32                        //v6lint:guardedby pathMu
	pathHi int32                        //v6lint:guardedby pathMu
	// pathLo and pathHi are the stored snapshots' round watermarks (see
	// watermark).

	// Date dictionary: the distinct sample dates, typically one per
	// round.
	dateMu  sync.RWMutex
	dates   []time.Time         //v6lint:guardedby dateMu
	dateIdx map[time.Time]int32 //v6lint:guardedby dateMu
}

type famDstKey struct {
	fam topo.Family
	dst int
}

// newVantageTable returns an empty table. It allocates no dense
// column: each stripe's column over a reserved range comes from its
// first write there (denseAt), so a vantage that never writes a range,
// or a stripe of it, holds nothing for it.
func newVantageTable() *vantageTable {
	t := &vantageTable{
		paths:   make(map[famDstKey][]PathSnapshot),
		dateIdx: make(map[time.Time]int32),
		pathLo:  noLow,
		pathHi:  -1,
	}
	for i := range t.dns {
		t.dns[i].lo, t.dns[i].hi = noLow, -1         //v6lint:locked the table is not yet shared
		t.samples[i].lo, t.samples[i].hi = noLow, -1 //v6lint:locked the table is not yet shared
	}
	return t
}

// grow extends the allocated dense columns to the reservation; a
// column not yet allocated stays empty. Callers must hold the shard
// locks or be otherwise exclusive (Reserve's contract).
func (t *vantageTable) grow(res reservation) {
	nMain, nExt := slotsFor(res.main), slotsFor(res.ext)
	for i := range t.dns {
		d := &t.dns[i]
		growAllocated(&d.main, nMain, dnsHist{})
		growAllocated(&d.ext, nExt, dnsHist{})
		s := &t.samples[i]
		for f := 0; f < 2; f++ {
			growAllocated(&s.main[f], nMain, -1)
			growAllocated(&s.ext[f], nExt, -1)
		}
	}
}

// growAllocated extends col to n entries set to fill, unless col is
// not yet allocated (see denseAt).
func growAllocated[S ~[]T, T comparable](col *S, n int, fill T) {
	if len(*col) > 0 {
		*col = extend(*col, n, fill)
	}
}

func (t *vantageTable) dateRef(d time.Time) int32 {
	t.dateMu.RLock()
	idx, ok := t.dateIdx[d]
	t.dateMu.RUnlock()
	if ok {
		return idx
	}
	t.dateMu.Lock()
	defer t.dateMu.Unlock()
	if idx, ok = t.dateIdx[d]; ok {
		return idx
	}
	idx = int32(len(t.dates))
	t.dates = append(t.dates, d)
	t.dateIdx[d] = idx
	return idx
}

// dateTable returns the current date dictionary; elements below its
// length are immutable.
func (t *vantageTable) dateTable() []time.Time {
	t.dateMu.RLock()
	defer t.dateMu.RUnlock()
	return t.dates
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{vantages: make(map[Vantage]*vantageTable)}
}

// Reserve declares the dense site-id ranges: ids in [0, mainIDs) and
// [extBase, extBase+extIDs) get index-addressed columnar storage in
// every table. The site table's columns span the ranges at once; a
// vantage table's DNS and sample columns over a range are allocated
// per stripe by its first write there, and Reserve grows only those
// already allocated. Growing preserves stored data (overflow entries
// now covered by a range are migrated, which is such a first write);
// the extended base cannot change once set and must be a multiple of
// the shard count. Reserve must not run concurrently with any other
// call — the campaign reserves between rounds — and relies on that
// exclusivity instead of holding the shard locks while it rebuilds
// the dense tables.
func (db *DB) Reserve(mainIDs int, extBase alexa.SiteID, extIDs int) {
	if extIDs > 0 {
		if db.res.ext > 0 && extBase != db.res.extBase {
			panic("store: Reserve with a different extended base")
		}
		if extBase&(shards-1) != 0 {
			panic("store: extended base must be a multiple of the shard count")
		}
	}
	if mainIDs > db.res.main {
		db.res.main = mainIDs
	}
	if extIDs > db.res.ext {
		db.res.extBase = extBase
		db.res.ext = extIDs
	}
	res := db.res
	for i := range db.sites {
		sh := &db.sites[i]
		sh.main.grow(slotsFor(res.main))
		sh.ext.grow(slotsFor(res.ext))
		for id, row := range sh.over {
			if table, _ := res.locate(id); table >= 0 {
				delete(sh.over, id)
				sh.putDense(res, row)
			}
		}
	}
	db.vmu.Lock()
	defer db.vmu.Unlock()
	for _, t := range db.vantages {
		t.grow(res)
		for i := range t.dns {
			d := &t.dns[i]
			for id, h := range d.over {
				if table, _ := res.locate(id); table >= 0 {
					delete(d.over, id)
					*d.hist(res, id, true) = *h
				}
			}
			s := &t.samples[i]
			for _, fam := range famBoth {
				for id, idx := range s.over[fam] {
					if entry, dense := s.denseSlot(res, id, fam, true); dense {
						delete(s.over[fam], id)
						*entry = idx
					}
				}
			}
		}
	}
}

// ExtendedRange returns the extended dense range Reserve declared:
// its base and its size, 0 when there is none. A later Reserve of a
// non-empty extended range must keep the base.
func (db *DB) ExtendedRange() (base alexa.SiteID, ids int) { return db.res.extBase, db.res.ext }

// table returns v's table, creating it on first use.
func (db *DB) table(v Vantage) *vantageTable {
	db.vmu.RLock()
	t := db.vantages[v]
	db.vmu.RUnlock()
	if t != nil {
		return t
	}
	db.vmu.Lock()
	defer db.vmu.Unlock()
	if t = db.vantages[v]; t == nil {
		t = newVantageTable()
		db.vantages[v] = t
	}
	return t
}

// lookup returns v's table without creating it.
func (db *DB) lookup(v Vantage) *vantageTable {
	db.vmu.RLock()
	defer db.vmu.RUnlock()
	return db.vantages[v]
}

// tables returns a snapshot of all vantage tables.
func (db *DB) tables() map[Vantage]*vantageTable {
	db.vmu.RLock()
	defer db.vmu.RUnlock()
	out := make(map[Vantage]*vantageTable, len(db.vantages))
	for v, t := range db.vantages {
		out[v] = t
	}
	return out
}

func (db *DB) siteShard(id alexa.SiteID) *siteShard {
	return &db.sites[uint64(id)&(shards-1)]
}

// putDense stores row into the dense columns. Caller holds sh.mu (or
// is exclusive) and has verified the id is in range.
func (sh *siteShard) putDense(res reservation, row SiteRow) {
	table, slot := res.locate(row.Site)
	sh.setDense(sh.cols(table), slot, row)
	sh.keepHost(row.Site, row.Host, row.Host == alexa.HostName(row.Site))
}

// cols returns the stripe's columns over dense table (0 main, 1
// extended). Caller holds sh.mu (or is exclusive).
func (sh *siteShard) cols(table int) *siteCols {
	if table == 1 {
		return &sh.ext
	}
	return &sh.main
}

// setDense writes row's first rank and origin ASes into slot of cols,
// marking the slot present and dirty; the host is keepHost's. Caller
// holds sh.mu (or is exclusive).
func (sh *siteShard) setDense(cols *siteCols, slot int, row SiteRow) {
	if !cols.present[slot] {
		cols.present[slot] = true
		sh.n++
	}
	cols.firstRank[slot] = int32(row.FirstRank)
	cols.v4[slot] = int32(row.V4AS)
	cols.v6[slot] = int32(row.V6AS)
	cols.touch(slot)
}

// keepHost records dense site id's host: nothing when it is the
// canonical one (derived), an exception otherwise. Caller holds sh.mu
// (or is exclusive).
func (sh *siteShard) keepHost(id alexa.SiteID, host string, derived bool) {
	if derived {
		delete(sh.hostOver, id)
		return
	}
	if sh.hostOver == nil {
		sh.hostOver = make(map[alexa.SiteID]string)
	}
	sh.hostOver[id] = host
}

// storedRow returns the dense row at (cols, slot) for site id as the
// columns hold it: Host is set only for a hostOver exception, and
// derived reports that the host is instead the canonical
// alexa.HostName(id), left unbuilt. Caller holds sh.mu.
func (sh *siteShard) storedRow(cols *siteCols, slot int, id alexa.SiteID) (row SiteRow, derived bool) {
	host, custom := sh.hostOver[id]
	return SiteRow{
		Site:      id,
		Host:      host,
		FirstRank: int(cols.firstRank[slot]),
		V4AS:      int(cols.v4[slot]),
		V6AS:      int(cols.v6[slot]),
	}, !custom
}

// withHost fills in a stored row's derived host.
func withHost(row SiteRow, derived bool) SiteRow {
	if derived {
		row.Host = alexa.HostName(row.Site)
	}
	return row
}

// PutSite inserts or updates a site row. It panics on a row a snapshot
// cannot carry back (siteErr, or an empty host), naming the field.
func (db *DB) PutSite(row SiteRow) {
	err := siteErr(row.Site, row.FirstRank, row.V4AS, row.V6AS)
	if row.Host == "" {
		err = errors.Join(err, errors.New("host empty, which a snapshot reads back as the canonical one"))
	}
	if err != nil {
		panic(fmt.Sprintf("store: PutSite: site %d %v", row.Site, err))
	}
	sh := db.siteShard(row.Site)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if table, _ := db.res.locate(row.Site); table >= 0 {
		sh.putDense(db.res, row)
		return
	}
	if sh.over == nil {
		sh.over = make(map[alexa.SiteID]SiteRow)
	}
	sh.over[row.Site] = row
}

// CanonicalSite is the monitor's view of a site in one round: a site
// row whose Host is the canonical alexa.HostName derivation.
type CanonicalSite struct {
	Site      alexa.SiteID
	FirstRank int
	V4AS      int
	V6AS      int
}

// Batch buffers a monitor worker's site views, DNS rows, carried
// visits and download samples for one Flush — the monitoring hot path,
// flushed once per dispatch block. The adders bucket each row by its
// lock stripe as it arrives, so Flush touches every row once instead of
// rescanning the batch per stripe. The zero Batch is ready to use;
// Flush empties it and keeps its buckets' capacity, so a reused Batch
// stops allocating once it has seen a full block. A Batch is not safe
// for concurrent use.
//
// A carried visit (Carry) is a visit the monitor did not query: it
// stands for a site whose DNS answer and site view at the round are
// the ones it had the round before. Flush records it by growing the
// site's open DNS run, or hands it back unrecorded (Returned) when the
// store's history cannot vouch for the round before.
type Batch struct {
	sites   [shards][]CanonicalSite
	dns     [shards][]DNSRow
	samples [shards][]batchSample
	// carry holds the pending carried visits, all at carryRound, as
	// runs of consecutive ids in the order they were carried; the
	// newest run is open, the ones before it in carry.
	carry      []idRun
	open       idRun
	carryRound int
	// back holds, per stripe in carry order, the carried visits the
	// last Flush handed back; backAt is Returned's read cursor into it.
	back   [shards][]alexa.SiteID
	backAt [shards]int
	// dates holds the samples' distinct dates (UTC) in the order they
	// were first added; dateRefs is Flush's scratch for their indices
	// in the vantage's date dictionary.
	dates    []time.Time
	dateRefs []int32
}

// idRun is the consecutive site ids from lo up to end, exclusive; its
// length is end-lo in two's complement, so no id makes it overflow.
type idRun struct{ lo, end alexa.SiteID }

// batchSample is a buffered sample; date indexes its Batch's dates.
type batchSample struct {
	site alexa.SiteID
	fam  topo.Family
	date int32
	s    Sample
}

// NewBatch returns an empty Batch sized for a block of rows contiguous
// site ids: each bucket holds its stripe's share of the block's site
// views and DNS rows without growing. Buckets grown from empty instead
// leave small arrays of many size classes behind every worker of every
// round, which showed as higher peak RSS. The sample buckets, the
// carried runs and the hand-back lists start empty: only a block's
// dual-stack sites add samples, a block of contiguous ids carries a
// few runs, and only the carried visits the store cannot vouch for
// come back, so they grow to what the blocks a reused Batch carries
// need.
func NewBatch(rows int) *Batch {
	b := new(Batch)
	n := (rows + shards - 1) / shards
	for i := range b.sites {
		b.sites[i] = make([]CanonicalSite, 0, n)
		b.dns[i] = make([]DNSRow, 0, n)
	}
	return b
}

// AddSite buffers a site view for the next Flush.
func (b *Batch) AddSite(r CanonicalSite) {
	i := uint64(r.Site) & (shards - 1)
	b.sites[i] = append(b.sites[i], r)
}

// AddDNS buffers a DNS row for the next Flush.
func (b *Batch) AddDNS(r DNSRow) {
	i := uint64(r.Site) & (shards - 1)
	b.dns[i] = append(b.dns[i], r)
}

// Carry buffers a carried visit of site at round for the next Flush:
// the caller's promise that a query of site at round would give the
// DNS row and the site view it gave at round-1. For the simulated DNS
// that holds before a site's adoption round (measure.SiteRef.Until).
// A visit of the id after the last one carried extends that visit's
// run, so a block of contiguous ids costs two compares and an
// increment per visit. Every carried visit of one Flush shares its
// round; Carry panics on a second round while visits of another are
// pending.
func (b *Batch) Carry(site alexa.SiteID, round int) {
	if site == b.open.end && round == b.carryRound {
		b.open.end++
		return
	}
	b.carryFrom(site, round)
}

// carryFrom closes the open run of carried visits and opens one at
// site.
func (b *Batch) carryFrom(site alexa.SiteID, round int) {
	if b.open != (idRun{}) {
		if round != b.carryRound {
			panic(fmt.Sprintf("store: Batch.Carry: site %d at round %d while carried visits at round %d are pending", site, round, b.carryRound))
		}
		b.carry = append(b.carry, b.open)
	}
	b.carryRound = round
	b.open = idRun{site, site + 1}
}

// Returned reports whether the last Flush handed site's carried visit
// back unrecorded, for the caller to query the site instead. The
// caller asks about the sites it carried in the order it carried them,
// each once, before its next Carry; Flush returned how many came back.
func (b *Batch) Returned(site alexa.SiteID) bool {
	i := uint64(site) & (shards - 1)
	if k := b.backAt[i]; k < len(b.back[i]) && b.back[i][k] == site {
		b.backAt[i] = k + 1
		return true
	}
	return false
}

// AddSample buffers a download sample of site over fam for the next
// Flush.
func (b *Batch) AddSample(site alexa.SiteID, fam topo.Family, s Sample) {
	// A batch's samples share one date in practice (the round's), so
	// the newest date is checked first.
	d := s.Date.UTC()
	k := len(b.dates) - 1
	for k >= 0 && b.dates[k] != d {
		k--
	}
	if k < 0 {
		k = len(b.dates)
		b.dates = append(b.dates, d)
	}
	i := uint64(site) & (shards - 1)
	b.samples[i] = append(b.samples[i], batchSample{site: site, fam: fam, date: int32(k), s: s})
}

// Flush records b's rows and empties it, taking each site-stripe,
// DNS-stripe and sample-stripe lock at most once. Every table ends up
// as if the rows were applied one by one in the order they were added:
// site views as PutSite with the canonical host (last write wins), DNS
// rows and samples at vantage v as AddDNS and AddSample. A site view
// is written only where it differs from the stored row: for the
// (overwhelmingly common) unchanged row that is three integer
// compares, and no host string is ever built for dense-range sites.
// DNS rows for one site must extend its history, in round order within
// and across Flushes (the monitor's rounds are sequential).
//
// A carried visit is applied after its stripe's DNS rows. When its
// site's history at v ends right before the round, Flush records it
// exactly as AddDNS of a row equal to the site's last one at the round
// — its newest run grows by one round — and writes no site row: the
// stored row is the view the visit promises. Otherwise (no history at
// v, a gap before the round, or a history that already reaches it) it
// records and counts nothing and hands the visit back: Flush returns
// how many it handed back, and Returned names them. So the store's own
// history decides what may be carried, and a caller needs no record of
// which rounds a site was visited in.
//
// Flush panics, as AddDNS, AddSample and PutSite do, on a row that does
// not extend its history, or that a snapshot cannot carry back, naming
// it; it checks all the batch's samples before it records one. The
// samples' dates enter v's date dictionary once per distinct date,
// outside the stripe locks. A batch without DNS rows or samples does
// not create v's table.
func (db *DB) Flush(v Vantage, b *Batch) (returned int) {
	res := db.res
	for i := range b.sites {
		rows := b.sites[i]
		if len(rows) == 0 {
			continue
		}
		sh := &db.sites[i]
		sh.mu.Lock()
		for k := range rows {
			if err := sh.ensure(res, &rows[k]); err != nil {
				sh.mu.Unlock()
				panic(fmt.Sprintf("store: Flush: vantage %q site %d %v", v, rows[k].Site, err))
			}
		}
		sh.mu.Unlock()
		b.sites[i] = rows[:0]
	}
	// A carried visit can only grow a history v's table already holds.
	var t *vantageTable
	round := int32(b.carryRound)
	if b.open != (idRun{}) {
		b.carry = append(b.carry, b.open)
		b.open = idRun{}
	}
	if len(b.carry) > 0 {
		if uint(b.carryRound) >= maxRound {
			panic("store: Flush: " + errRound(v, "carried visits'", b.carryRound).Error())
		}
		t = db.lookup(v)
	}
	for i := range b.dns {
		rows, back := b.dns[i], b.back[i][:0]
		if t == nil && len(rows) > 0 {
			t = db.table(v)
		}
		switch {
		case t != nil && len(rows)+len(b.carry) > 0:
			sh := &t.dns[i]
			sh.mu.Lock()
			for _, row := range rows {
				if uint(row.Round) >= maxRound || uint64(row.Site) >= uint64(snapAllSites) {
					sh.mu.Unlock()
					panic("store: Flush: " + dnsErr(v, row).Error())
				}
				if end, ok := sh.add(res, row); !ok {
					sh.mu.Unlock()
					panic("store: Flush: " + errDNSOrder(v, row.Site, int32(row.Round), end).Error())
				}
			}
			for _, c := range b.carry {
				back = sh.carryRun(res, uint64(i), c, round, back)
			}
			sh.mu.Unlock()
		case t == nil:
			// v has no table, so no history for a carried visit to grow.
			for _, c := range b.carry {
				first, count := c.inStripe(uint64(i))
				for j := 0; j < count; j++ {
					back = append(back, first+alexa.SiteID(j)*shards)
				}
			}
		}
		b.dns[i], b.back[i], b.backAt[i] = rows[:0], back, 0
		returned += len(back)
	}
	b.carry = b.carry[:0]
	if len(b.dates) == 0 {
		return returned
	}
	for i := range b.samples {
		for k := range b.samples[i] {
			r := &b.samples[i][k]
			if err := sampleRowErr(v, r.site, r.fam, r.s); err != nil {
				panic("store: Flush: " + err.Error())
			}
		}
	}
	if t == nil {
		t = db.table(v)
	}
	b.dateRefs = b.dateRefs[:0]
	for _, d := range b.dates {
		b.dateRefs = append(b.dateRefs, t.dateRef(d))
	}
	for i := range b.samples {
		rows := b.samples[i]
		if len(rows) == 0 {
			continue
		}
		sh := &t.samples[i]
		sh.mu.Lock()
		for k := range rows {
			r := &rows[k]
			sh.add(res, r.site, r.fam, packSample(r.s, b.dateRefs[r.date]), seriesCap)
		}
		sh.mu.Unlock()
		b.samples[i] = rows[:0]
	}
	b.dates = b.dates[:0]
	return returned
}

// ensure writes r's row unless the stored row already carries its
// values (an existing non-canonical host then stays), or returns siteErr
// for a row it would write, writing nothing. Caller holds sh.mu.
func (sh *siteShard) ensure(res reservation, r *CanonicalSite) error {
	table, slot := res.locate(r.Site)
	if table < 0 {
		if prev, ok := sh.over[r.Site]; ok && prev.FirstRank == r.FirstRank && prev.V4AS == r.V4AS && prev.V6AS == r.V6AS {
			return nil
		}
		if err := siteErr(r.Site, r.FirstRank, r.V4AS, r.V6AS); err != nil {
			return err
		}
		if sh.over == nil {
			sh.over = make(map[alexa.SiteID]SiteRow)
		}
		sh.over[r.Site] = SiteRow{Site: r.Site, Host: alexa.HostName(r.Site), FirstRank: r.FirstRank, V4AS: r.V4AS, V6AS: r.V6AS}
		return nil
	}
	cols := sh.cols(table)
	if cols.present[slot] &&
		cols.firstRank[slot] == int32(r.FirstRank) &&
		cols.v4[slot] == int32(r.V4AS) &&
		cols.v6[slot] == int32(r.V6AS) {
		return nil
	}
	if err := siteErr(r.Site, r.FirstRank, r.V4AS, r.V6AS); err != nil {
		return err
	}
	sh.setDense(cols, slot, SiteRow{FirstRank: r.FirstRank, V4AS: r.V4AS, V6AS: r.V6AS})
	delete(sh.hostOver, r.Site)
	return nil
}

// Site returns a site row.
func (db *DB) Site(id alexa.SiteID) (SiteRow, bool) {
	row, derived, ok := db.storedSite(id)
	return withHost(row, derived), ok
}

// storedSite returns a site row as stored (see storedRow).
func (db *DB) storedSite(id alexa.SiteID) (row SiteRow, derived, ok bool) {
	sh := db.siteShard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if table, slot := db.res.locate(id); table >= 0 {
		cols := sh.cols(table)
		if !cols.present[slot] {
			return SiteRow{}, false, false
		}
		row, derived = sh.storedRow(cols, slot, id)
		return row, derived, true
	}
	row, ok = sh.over[id]
	return row, false, ok
}

// forEachSite visits every site row in ascending id order, streaming
// from the columnar tables without materializing the whole set, under
// forEachStoredSite's locks.
func (db *DB) forEachSite(fn func(SiteRow)) {
	db.forEachStoredSite(0, snapAllSites, func(row SiteRow, derived bool) { fn(withHost(row, derived)) })
}

// forEachStoredSite visits the site rows in [lo, hi) in ascending id
// order as stored (see storedRow): a dense row with the canonical host
// arrives with derived set and no Host, so a walker that can encode
// that case without the string never builds it. Overflow rows carry
// their host. It visits only the dense slots of [lo, hi) and the
// overflow ids inside it, and holds every site stripe lock, taken in
// ascending order, for the whole pass: fn must not write to the same
// database, nor read its site rows through the locking getters.
func (db *DB) forEachStoredSite(lo, hi alexa.SiteID, fn func(row SiteRow, derived bool)) {
	db.lockSites()
	defer db.unlockSites()
	// Overflow ids can interleave anywhere; gather and sort them once.
	var over []alexa.SiteID
	for i := range db.sites {
		for id := range db.sites[i].over {
			if lo <= id && id < hi {
				over = append(over, id)
			}
		}
	}
	slices.Sort(over)
	oi := 0
	emitOver := func(limit alexa.SiteID) {
		for ; oi < len(over) && over[oi] < limit; oi++ {
			fn(db.sites[uint64(over[oi])&(shards-1)].over[over[oi]], false)
		}
	}
	emitRange := func(base alexa.SiteID, n int, table int) {
		var cols [shards]*siteCols
		for i := range db.sites {
			cols[i] = db.sites[i].cols(table)
		}
		for id := max(lo, base); id < min(hi, base+alexa.SiteID(n)); id++ {
			i := uint64(id) & (shards - 1)
			if slot := int(id-base) >> shardBits; cols[i].present[slot] {
				emitOver(id)
				row, derived := db.sites[i].storedRow(cols[i], slot, id)
				fn(row, derived)
			}
		}
	}
	emitRange(0, db.res.main, 0)
	if db.res.ext > 0 {
		emitRange(db.res.extBase, db.res.ext, 1)
	}
	emitOver(hi)
}

// lockSites takes every site stripe lock in ascending order, as
// lockedDNSView takes the DNS ones: the one order in which a pass
// holds several. unlockSites releases them.
func (db *DB) lockSites() {
	for i := range db.sites {
		db.sites[i].mu.Lock()
	}
}

func (db *DB) unlockSites() {
	for i := range db.sites {
		db.sites[i].mu.Unlock()
	}
}

// Sites returns all site rows sorted by id.
func (db *DB) Sites() []SiteRow {
	var out []SiteRow
	db.forEachSite(func(r SiteRow) { out = append(out, r) })
	return out
}

// AddDNS appends a DNS phase result, which must extend the site's
// history: a round after the last one stored for the site at v. It
// panics on a row that does not (an earlier or a duplicate round),
// naming the vantage, the site, the round and where the history ends,
// on a round outside [0, maxRound), naming the vantage, the site and
// the round, and on a site id outside [0, 2^62).
func (db *DB) AddDNS(v Vantage, row DNSRow) {
	if uint(row.Round) >= maxRound || uint64(row.Site) >= uint64(snapAllSites) {
		panic("store: AddDNS: " + dnsErr(v, row).Error())
	}
	sh := &db.table(v).dns[uint64(row.Site)&(shards-1)]
	sh.mu.Lock()
	end, ok := sh.add(db.res, row)
	sh.mu.Unlock()
	if !ok {
		panic("store: AddDNS: " + errDNSOrder(v, row.Site, int32(row.Round), end).Error())
	}
}

// DNS returns all DNS rows for a vantage in canonical (site, round)
// order, expanded from the delta encoding.
func (db *DB) DNS(v Vantage) []DNSRow {
	var out []DNSRow
	db.ForEachDNS(v, func(r DNSRow) { out = append(out, r) })
	return out
}

// DNSStats returns the delta encoder's compression surface for a
// vantage: the expanded row count, the stored run count, and the
// number of sites with any history. The interesting derived number is
// transitions per site, (runs-sites)/sites — a site's first run is
// its initial state, every further run a state change.
func (db *DB) DNSStats(v Vantage) (rows, runs, sites int) {
	t := db.lookup(v)
	if t == nil {
		return 0, 0, 0
	}
	for i := range t.dns {
		sh := &t.dns[i]
		sh.mu.Lock()
		rows += sh.rows
		count := func(h *dnsHist, id alexa.SiteID) {
			if h.run[0].count == 0 {
				return
			}
			sites++
			runs++
			if h.run[1].count != 0 {
				runs++
			}
			if h.run[1].state&dnsSpilled != 0 {
				runs += len(sh.spill[id])
			}
		}
		for slot := range sh.main {
			count(&sh.main[slot], alexa.SiteID(slot<<shardBits|i))
		}
		for slot := range sh.ext {
			count(&sh.ext[slot], db.res.extBase+alexa.SiteID(slot<<shardBits|i))
		}
		for id, h := range sh.over {
			count(h, id)
		}
		sh.mu.Unlock()
	}
	return rows, runs, sites
}

// seriesCap is the capacity of a series that a written sample mints: a
// site's series grows one sample per monitored round, so it starts
// with a study's worth to avoid repeated regrowth.
const seriesCap = 40

// AddSample appends a download sample, its date in UTC so that one
// instant is one date whatever its zone. It panics on a round outside
// [0, maxRound) and on a sample a snapshot cannot carry back
// (sampleErr), naming the vantage, the site, the field and the value.
// The monitor writes its samples through Batch and Flush; AddSample is
// their row-by-row reference.
func (db *DB) AddSample(v Vantage, site alexa.SiteID, fam topo.Family, s Sample) {
	if err := sampleRowErr(v, site, fam, s); err != nil {
		panic("store: AddSample: " + err.Error())
	}
	t := db.table(v)
	p := packSample(s, t.dateRef(s.Date.UTC()))
	sh := &t.samples[uint64(site)&(shards-1)]
	sh.mu.Lock()
	sh.add(db.res, site, fam, p, seriesCap)
	sh.mu.Unlock()
}

// appendSeries appends a packed series to dst as round-sorted
// Samples. Monitors append in round order, so the expansion is
// normally a straight copy; only series populated out of order
// through the public API pay the stable sort.
func appendSeries(dst []Sample, packed []packedSample, dates []time.Time) []Sample {
	start := len(dst)
	dst = slices.Grow(dst, len(packed))
	sorted := true
	for _, p := range packed {
		s := p.sample(dates)
		if len(dst) > start && s.Round < dst[len(dst)-1].Round {
			sorted = false
		}
		dst = append(dst, s)
	}
	if !sorted {
		out := dst[start:]
		sort.SliceStable(out, func(i, j int) bool { return out[i].Round < out[j].Round })
	}
	return dst
}

// sampledSites returns the distinct site ids with samples at vantage
// v, sorted.
func (db *DB) sampledSites(v Vantage) []alexa.SiteID {
	t := db.lookup(v)
	if t == nil {
		return nil
	}
	var out []alexa.SiteID
	for i := range t.samples {
		sh := &t.samples[i]
		sh.mu.Lock()
		for _, o := range sh.owner {
			out = append(out, o.site)
		}
		sh.mu.Unlock()
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// AddPath records the AS path to dst observed after a round. Only
// changes are stored: identical consecutive snapshots collapse. It
// panics on a round outside [0, maxRound), a family other than V4 and
// V6, or a destination or AS outside [0, 2^31-1], naming the vantage,
// the path key, the field and the value.
func (db *DB) AddPath(v Vantage, fam topo.Family, dst, round int, path []int) {
	if uint(round) >= maxRound {
		panic("store: AddPath: " + errRound(v, fmt.Sprintf("path key (%d,%d)", fam, dst), round).Error())
	}
	err := errors.Join(outside("family", int64(fam), 0, 1), outside("dst", int64(dst), 0, maxField))
	for _, as := range path {
		err = errors.Join(err, outside("path AS", int64(as), 0, maxField))
	}
	if err != nil {
		panic(fmt.Sprintf("store: AddPath: vantage %q path key (%d,%d) %v", v, fam, dst, err))
	}
	t := db.table(v)
	k := famDstKey{fam, dst}
	t.pathMu.Lock()
	defer t.pathMu.Unlock()
	snaps := t.paths[k]
	if n := len(snaps); n > 0 && equalPath(snaps[n-1].Path, path) {
		return
	}
	t.paths[k] = append(snaps, PathSnapshot{Round: round, Path: append([]int(nil), path...)})
	watermark(&t.pathLo, &t.pathHi, int32(round), int32(round))
}

func equalPath(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Vantages returns every vantage with any stored data, sorted.
func (db *DB) Vantages() []Vantage {
	db.vmu.RLock()
	out := make([]Vantage, 0, len(db.vantages))
	for v := range db.vantages {
		out = append(out, v)
	}
	db.vmu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Counts summarizes table sizes, for logging and sanity checks.
func (db *DB) Counts() (sites, dnsRows, sampleRows, pathSnaps int) {
	for i := range db.sites {
		sh := &db.sites[i]
		sh.mu.Lock()
		sites += sh.n + len(sh.over)
		sh.mu.Unlock()
	}
	for _, t := range db.tables() {
		for i := range t.dns {
			sh := &t.dns[i]
			sh.mu.Lock()
			dnsRows += sh.rows
			sh.mu.Unlock()
		}
		for i := range t.samples {
			sh := &t.samples[i]
			sh.mu.Lock()
			sampleRows += sh.rows
			sh.mu.Unlock()
		}
		t.pathMu.Lock()
		for _, ps := range t.paths {
			pathSnaps += len(ps)
		}
		t.pathMu.Unlock()
	}
	return
}

// String implements fmt.Stringer with a compact summary.
func (db *DB) String() string {
	s, d, sa, p := db.Counts()
	return fmt.Sprintf("store.DB{sites:%d dns:%d samples:%d paths:%d}", s, d, sa, p)
}
