// Package store is the measurement result database standing in for
// the paper's MySQL backend: per-vantage tables of DNS results,
// per-round download samples, AS-path snapshots, and site metadata,
// with query helpers the analysis pipeline scans and CSV persistence
// for the common repository ("aggregated at Penn") role.
//
// Writes are the monitoring hot path: 25 workers per vantage append
// samples and DNS rows concurrently for every site of every round.
// The database therefore shards its locks by site id instead of
// funneling every worker through one RWMutex.
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
//     into index-addressed tables. Ids outside the reserved ranges
//     (direct API use, databases loaded from CSV without a
//     reservation) fall back to per-shard overflow maps.
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
	"fmt"
	"sort"
	"sync"
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

// append records one observation, returning how the history grew:
// spill=true means the new run must go to the shard's spill list, and
// ooo=true means the observation is out of order (or a duplicate
// round) and must be kept as an explicit row.
func (h *dnsHist) append(spillRuns []dnsRun, round int32, state uint8) (newRun dnsRun, spill, ooo bool) {
	last := &h.run[0]
	switch {
	case h.run[0].count == 0:
		h.run[0] = dnsRun{start: round, count: 1, state: state}
		return dnsRun{}, false, false
	case h.run[1].state&dnsSpilled != 0 && len(spillRuns) > 0:
		last = &spillRuns[len(spillRuns)-1]
	case h.run[1].count != 0:
		last = &h.run[1]
	}
	end := last.start + last.count
	switch {
	case round == end && state == last.state&dnsStateMask:
		last.count++
		return dnsRun{}, false, false
	case round >= end:
		nr := dnsRun{start: round, count: 1, state: state}
		if h.run[1].count == 0 && h.run[1].state&dnsSpilled == 0 {
			h.run[1] = nr
			return dnsRun{}, false, false
		}
		h.run[1].state |= dnsSpilled
		return nr, true, false
	default:
		return dnsRun{}, false, true
	}
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

// obs counts the observations recorded across the site's runs.
func (h *dnsHist) obs(spill []dnsRun) int32 {
	n := h.run[0].count + h.run[1].count
	if h.run[1].state&dnsSpilled != 0 {
		for _, r := range spill {
			n += r.count
		}
	}
	return n
}

// dnsShard is one stripe of a vantage's delta-encoded DNS table.
type dnsShard struct {
	mu    sync.Mutex                //v6lint:shardlock one stripe of the site-id striped DNS table
	main  []dnsHist                 //v6lint:guardedby mu
	ext   []dnsHist                 //v6lint:guardedby mu
	spill map[alexa.SiteID][]dnsRun //v6lint:guardedby mu
	over  map[alexa.SiteID]*dnsHist //v6lint:guardedby mu
	rows  int                       //v6lint:guardedby mu
	// rows counts observations in this shard (excluding the ooo log).
}

// hist returns the site's history slot, creating overflow entries on
// demand when create is set. Caller holds s.mu.
func (s *dnsShard) hist(res reservation, id alexa.SiteID, create bool) *dnsHist {
	switch table, slot := res.locate(id); table {
	case 0:
		if slot < len(s.main) {
			return &s.main[slot]
		}
	case 1:
		if slot < len(s.ext) {
			return &s.ext[slot]
		}
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

// add records one DNS observation, reporting out-of-order rows the
// caller must keep in the ooo log instead. Caller holds s.mu.
func (s *dnsShard) add(res reservation, row DNSRow) (ooo bool) {
	h := s.hist(res, row.Site, true)
	nr, spill, outOfOrder := h.append(s.spill[row.Site], int32(row.Round), dnsState(row.HasA, row.HasAAAA, row.Identical))
	if outOfOrder {
		return true
	}
	if spill {
		if s.spill == nil {
			s.spill = make(map[alexa.SiteID][]dnsRun)
		}
		s.spill[row.Site] = append(s.spill[row.Site], nr)
	}
	s.rows++
	return false
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

func (f *famSlots) grow(n int) {
	for len(*f) < n {
		*f = append(*f, -1)
	}
}

// sampleShard is one stripe of a vantage's sample table: per family,
// a dense slot column over each reserved range (plus an overflow map)
// pointing into the shard-local series storage.
type sampleShard struct {
	mu     sync.Mutex                //v6lint:shardlock one stripe of the site-id striped sample table
	main   [2]famSlots               //v6lint:guardedby mu
	ext    [2]famSlots               //v6lint:guardedby mu
	over   [2]map[alexa.SiteID]int32 //v6lint:guardedby mu
	series [][]packedSample          //v6lint:guardedby mu
	rows   int                       //v6lint:guardedby mu
}

// seriesIdx returns the series index stored for (id, fam), or -1.
// Caller holds s.mu.
func (s *sampleShard) seriesIdx(res reservation, id alexa.SiteID, fam topo.Family) int32 {
	f := int(fam)
	switch table, slot := res.locate(id); table {
	case 0:
		if slot < len(s.main[f]) {
			return s.main[f][slot]
		}
		return -1
	case 1:
		if slot < len(s.ext[f]) {
			return s.ext[f][slot]
		}
		return -1
	}
	if idx, ok := s.over[f][id]; ok {
		return idx
	}
	return -1
}

// add appends one packed sample to the site's series, minting the
// series slot on first use. Caller holds s.mu.
func (s *sampleShard) add(res reservation, id alexa.SiteID, fam topo.Family, p packedSample) {
	f := int(fam)
	idx := int32(-1)
	table, slot := res.locate(id)
	switch table {
	case 0:
		if slot < len(s.main[f]) {
			idx = s.main[f][slot]
		} else {
			table = -1
		}
	case 1:
		if slot < len(s.ext[f]) {
			idx = s.ext[f][slot]
		} else {
			table = -1
		}
	}
	if table < 0 {
		if s.over[f] == nil {
			s.over[f] = make(map[alexa.SiteID]int32)
		}
		var ok bool
		if idx, ok = s.over[f][id]; !ok {
			idx = -1
		}
	}
	if idx < 0 {
		idx = int32(len(s.series))
		// A site's series grows one sample per monitored round;
		// preallocate a study's worth to avoid repeated regrowth.
		s.series = append(s.series, make([]packedSample, 0, 40))
		switch table {
		case 0:
			s.main[f][slot] = idx
		case 1:
			s.ext[f][slot] = idx
		default:
			s.over[f][id] = idx
		}
	}
	s.series[idx] = append(s.series[idx], p)
	s.rows++
}

// --- site rows -------------------------------------------------------

// siteCols is the columnar site-row storage for one dense range within
// one shard.
type siteCols struct {
	present   []bool
	firstRank []int32
	v4        []int32
	v6        []int32
}

func (c *siteCols) grow(n int) {
	for len(c.present) < n {
		c.present = append(c.present, false)
		c.firstRank = append(c.firstRank, 0)
		c.v4 = append(c.v4, 0)
		c.v6 = append(c.v6, 0)
	}
}

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
}

// vantageTable holds one vantage's measurement tables, striped by
// site id.
type vantageTable struct {
	dns     [shards]dnsShard
	samples [shards]sampleShard

	// oooMu guards the out-of-order log: rows whose round precedes the
	// end of the site's last run (duplicates included) are kept
	// verbatim rather than folded into the delta encoding.
	oooMu sync.Mutex
	ooo   []DNSRow //v6lint:guardedby oooMu

	pathMu sync.Mutex
	paths  map[famDstKey][]PathSnapshot //v6lint:guardedby pathMu

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

func newVantageTable(res reservation) *vantageTable {
	t := &vantageTable{
		paths:   make(map[famDstKey][]PathSnapshot),
		dateIdx: make(map[time.Time]int32),
	}
	t.grow(res)
	return t
}

// grow sizes the dense columns to the reservation. Callers must hold
// the shard locks or be otherwise exclusive (Reserve's contract).
func (t *vantageTable) grow(res reservation) {
	nMain, nExt := slotsFor(res.main), slotsFor(res.ext)
	for i := range t.dns {
		d := &t.dns[i]
		for len(d.main) < nMain {
			d.main = append(d.main, dnsHist{})
		}
		for len(d.ext) < nExt {
			d.ext = append(d.ext, dnsHist{})
		}
		s := &t.samples[i]
		for f := 0; f < 2; f++ {
			s.main[f].grow(nMain)
			s.ext[f].grow(nExt)
		}
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
// every table. Growing preserves stored data (overflow entries now
// covered by a range are migrated); the extended base cannot change
// once set and must be a multiple of the shard count. Reserve must
// not run concurrently with any other call — the campaign reserves
// between rounds — and relies on that exclusivity instead of holding
// the shard locks while it rebuilds the dense tables.
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
			for f := 0; f < 2; f++ {
				for id, idx := range s.over[f] {
					if table, slot := res.locate(id); table >= 0 {
						delete(s.over[f], id)
						if table == 0 {
							s.main[f][slot] = idx
						} else {
							s.ext[f][slot] = idx
						}
					}
				}
			}
		}
	}
}

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
		t = newVantageTable(db.res)
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
	cols := &sh.main
	if table == 1 {
		cols = &sh.ext
	}
	if !cols.present[slot] {
		cols.present[slot] = true
		sh.n++
	}
	cols.firstRank[slot] = int32(row.FirstRank)
	cols.v4[slot] = int32(row.V4AS)
	cols.v6[slot] = int32(row.V6AS)
	if row.Host == alexa.HostName(row.Site) {
		delete(sh.hostOver, row.Site)
	} else {
		if sh.hostOver == nil {
			sh.hostOver = make(map[alexa.SiteID]string)
		}
		sh.hostOver[row.Site] = row.Host
	}
}

// rowAt reconstructs the dense row at (cols, slot) for site id.
// Caller holds sh.mu.
func (sh *siteShard) rowAt(cols *siteCols, slot int, id alexa.SiteID) SiteRow {
	host, ok := sh.hostOver[id]
	if !ok {
		host = alexa.HostName(id)
	}
	return SiteRow{
		Site:      id,
		Host:      host,
		FirstRank: int(cols.firstRank[slot]),
		V4AS:      int(cols.v4[slot]),
		V6AS:      int(cols.v6[slot]),
	}
}

// PutSite inserts or updates a site row.
func (db *DB) PutSite(row SiteRow) {
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

// EnsureCanonicalSites records a monitor worker's buffered site views
// — the monitoring hot path, flushed once per dispatch block beside
// AddDNSBatch — taking each shard lock once per batch rather than once
// per row. A row is written only where it differs from the stored one:
// for the (overwhelmingly common) unchanged row that is three integer
// compares, and no host string is ever built for dense-range sites.
// The resulting table is identical to calling PutSite with the
// canonical host for each view in slice order: last write wins.
func (db *DB) EnsureCanonicalSites(rows []CanonicalSite) {
	res := db.res
	for i := range db.sites {
		sh := &db.sites[i]
		locked := false
		for k := range rows {
			if uint64(rows[k].Site)&(shards-1) != uint64(i) {
				continue
			}
			if !locked {
				sh.mu.Lock()
				locked = true
			}
			sh.ensure(res, &rows[k])
		}
		if locked {
			sh.mu.Unlock()
		}
	}
}

// ensure writes r's row unless the stored row already carries its
// values (an existing non-canonical host then stays). Caller holds
// sh.mu.
func (sh *siteShard) ensure(res reservation, r *CanonicalSite) {
	table, slot := res.locate(r.Site)
	if table < 0 {
		if prev, ok := sh.over[r.Site]; ok && prev.FirstRank == r.FirstRank && prev.V4AS == r.V4AS && prev.V6AS == r.V6AS {
			return
		}
		if sh.over == nil {
			sh.over = make(map[alexa.SiteID]SiteRow)
		}
		sh.over[r.Site] = SiteRow{Site: r.Site, Host: alexa.HostName(r.Site), FirstRank: r.FirstRank, V4AS: r.V4AS, V6AS: r.V6AS}
		return
	}
	cols := &sh.main
	if table == 1 {
		cols = &sh.ext
	}
	if cols.present[slot] &&
		cols.firstRank[slot] == int32(r.FirstRank) &&
		cols.v4[slot] == int32(r.V4AS) &&
		cols.v6[slot] == int32(r.V6AS) {
		return
	}
	if !cols.present[slot] {
		cols.present[slot] = true
		sh.n++
	}
	cols.firstRank[slot] = int32(r.FirstRank)
	cols.v4[slot] = int32(r.V4AS)
	cols.v6[slot] = int32(r.V6AS)
	delete(sh.hostOver, r.Site)
}

// Site returns a site row.
func (db *DB) Site(id alexa.SiteID) (SiteRow, bool) {
	sh := db.siteShard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if table, slot := db.res.locate(id); table >= 0 {
		cols := &sh.main
		if table == 1 {
			cols = &sh.ext
		}
		if !cols.present[slot] {
			return SiteRow{}, false
		}
		return sh.rowAt(cols, slot, id), true
	}
	r, ok := sh.over[id]
	return r, ok
}

// forEachSite visits every site row in ascending id order, streaming
// from the columnar tables without materializing the whole set. It
// takes each shard lock once per visited site.
func (db *DB) forEachSite(fn func(SiteRow)) {
	// Overflow ids can interleave anywhere; gather and sort them once.
	var over []alexa.SiteID
	for i := range db.sites {
		sh := &db.sites[i]
		sh.mu.Lock()
		for id := range sh.over {
			over = append(over, id)
		}
		sh.mu.Unlock()
	}
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
	oi := 0
	emitOverBelow := func(limit alexa.SiteID, all bool) {
		for oi < len(over) && (all || over[oi] < limit) {
			id := over[oi]
			sh := db.siteShard(id)
			sh.mu.Lock()
			row, ok := sh.over[id]
			sh.mu.Unlock()
			if ok {
				fn(row)
			}
			oi++
		}
	}
	emitRange := func(base alexa.SiteID, n int, pick func(sh *siteShard) *siteCols) {
		for id := base; id < base+alexa.SiteID(n); id++ {
			emitOverBelow(id, false)
			sh := db.siteShard(id)
			slot := int(id-base) >> shardBits
			sh.mu.Lock()
			cols := pick(sh)
			if slot < len(cols.present) && cols.present[slot] {
				row := sh.rowAt(cols, slot, id)
				sh.mu.Unlock()
				fn(row)
			} else {
				sh.mu.Unlock()
			}
		}
	}
	emitRange(0, db.res.main, func(sh *siteShard) *siteCols { return &sh.main })
	if db.res.ext > 0 {
		emitRange(db.res.extBase, db.res.ext, func(sh *siteShard) *siteCols { return &sh.ext })
	}
	emitOverBelow(0, true)
}

// Sites returns all site rows sorted by id.
func (db *DB) Sites() []SiteRow {
	var out []SiteRow
	db.forEachSite(func(r SiteRow) { out = append(out, r) })
	return out
}

// AddDNS appends a DNS phase result. Within one site, rounds arriving
// in order extend the delta encoding; an out-of-order or duplicate
// round is kept as an explicit row.
func (db *DB) AddDNS(v Vantage, row DNSRow) {
	t := db.table(v)
	t.addDNS(db.res, row)
}

func (t *vantageTable) addDNS(res reservation, row DNSRow) {
	sh := &t.dns[uint64(row.Site)&(shards-1)]
	sh.mu.Lock()
	ooo := sh.add(res, row)
	sh.mu.Unlock()
	if ooo {
		t.oooMu.Lock()
		t.ooo = append(t.ooo, row)
		t.oooMu.Unlock()
	}
}

// AddDNSBatch feeds a worker's buffered DNS rows to the delta
// encoder, taking each shard lock once per batch rather than once per
// row. Batches for the same site must arrive in round order (the
// monitor's rounds are sequential); rows violating that are kept as
// explicit out-of-order rows.
func (db *DB) AddDNSBatch(v Vantage, rows []DNSRow) {
	if len(rows) == 0 {
		return
	}
	t := db.table(v)
	res := db.res
	var ooo []DNSRow
	for i := 0; i < shards; i++ {
		sh := &t.dns[i]
		locked := false
		for _, row := range rows {
			if uint64(row.Site)&(shards-1) != uint64(i) {
				continue
			}
			if !locked {
				sh.mu.Lock()
				locked = true
			}
			if sh.add(res, row) {
				ooo = append(ooo, row)
			}
		}
		if locked {
			sh.mu.Unlock()
		}
	}
	if len(ooo) > 0 {
		t.oooMu.Lock()
		t.ooo = append(t.ooo, ooo...)
		t.oooMu.Unlock()
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
	t.oooMu.Lock()
	n := len(t.ooo)
	t.oooMu.Unlock()
	return rows + n, runs + n, sites
}

// AddSample appends a download sample.
func (db *DB) AddSample(v Vantage, site alexa.SiteID, fam topo.Family, s Sample) {
	t := db.table(v)
	p := packSample(s, t.dateRef(s.Date))
	sh := &t.samples[uint64(site)&(shards-1)]
	sh.mu.Lock()
	sh.add(db.res, site, fam, p)
	sh.mu.Unlock()
}

// expandSeries converts a packed series to round-sorted Samples.
// Monitors append in round order, so the expansion is normally a
// straight copy; only series populated out of order through the
// public API pay the stable sort.
func expandSeries(packed []packedSample, dates []time.Time) []Sample {
	if len(packed) == 0 {
		return nil
	}
	out := make([]Sample, len(packed))
	sorted := true
	for i, p := range packed {
		out[i] = p.sample(dates)
		if i > 0 && out[i].Round < out[i-1].Round {
			sorted = false
		}
	}
	if !sorted {
		sort.SliceStable(out, func(i, j int) bool { return out[i].Round < out[j].Round })
	}
	return out
}

// Samples returns the round-ordered samples for (vantage, site,
// family).
func (db *DB) Samples(v Vantage, site alexa.SiteID, fam topo.Family) []Sample {
	t := db.lookup(v)
	if t == nil {
		return nil
	}
	dates := t.dateTable()
	sh := &t.samples[uint64(site)&(shards-1)]
	sh.mu.Lock()
	var packed []packedSample
	if idx := sh.seriesIdx(db.res, site, fam); idx >= 0 {
		packed = append(packed, sh.series[idx]...)
	}
	sh.mu.Unlock()
	return expandSeries(packed, dates)
}

// SampledSites returns the distinct site ids with samples at vantage
// v, sorted.
func (db *DB) SampledSites(v Vantage) []alexa.SiteID {
	t := db.lookup(v)
	if t == nil {
		return nil
	}
	var out []alexa.SiteID
	for i := range t.samples {
		sh := &t.samples[i]
		sh.mu.Lock()
		for f := 0; f < 2; f++ {
			for slot, idx := range sh.main[f] {
				if idx >= 0 {
					out = append(out, alexa.SiteID(slot<<shardBits|i))
				}
			}
			for slot, idx := range sh.ext[f] {
				if idx >= 0 {
					out = append(out, db.res.extBase+alexa.SiteID(slot<<shardBits|i))
				}
			}
			for id := range sh.over[f] {
				out = append(out, id)
			}
		}
		sh.mu.Unlock()
	}
	return dedupSortedSiteIDs(out)
}

// AddPath records the AS path to dst observed after a round. Only
// changes are stored: identical consecutive snapshots collapse.
func (db *DB) AddPath(v Vantage, fam topo.Family, dst, round int, path []int) {
	t := db.table(v)
	k := famDstKey{fam, dst}
	t.pathMu.Lock()
	defer t.pathMu.Unlock()
	snaps := t.paths[k]
	if n := len(snaps); n > 0 && equalPath(snaps[n-1].Path, path) {
		return
	}
	t.paths[k] = append(snaps, PathSnapshot{Round: round, Path: append([]int(nil), path...)})
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

// PathAt returns the AS path to dst in effect at round, or nil.
func (db *DB) PathAt(v Vantage, fam topo.Family, dst, round int) []int {
	t := db.lookup(v)
	if t == nil {
		return nil
	}
	k := famDstKey{fam, dst}
	t.pathMu.Lock()
	defer t.pathMu.Unlock()
	var cur []int
	for _, s := range t.paths[k] {
		if s.Round > round {
			break
		}
		cur = s.Path
	}
	return append([]int(nil), cur...)
}

// LatestPath returns the most recent path to dst, or nil.
func (db *DB) LatestPath(v Vantage, fam topo.Family, dst int) []int {
	t := db.lookup(v)
	if t == nil {
		return nil
	}
	k := famDstKey{fam, dst}
	t.pathMu.Lock()
	defer t.pathMu.Unlock()
	snaps := t.paths[k]
	if len(snaps) == 0 {
		return nil
	}
	return append([]int(nil), snaps[len(snaps)-1].Path...)
}

// PathChanged reports whether the path to dst changed during the
// study (more than one stored snapshot).
func (db *DB) PathChanged(v Vantage, fam topo.Family, dst int) bool {
	t := db.lookup(v)
	if t == nil {
		return false
	}
	t.pathMu.Lock()
	defer t.pathMu.Unlock()
	return len(t.paths[famDstKey{fam, dst}]) > 1
}

// PathDestinations returns all destination ASes with a stored path for
// (vantage, family), sorted.
func (db *DB) PathDestinations(v Vantage, fam topo.Family) []int {
	t := db.lookup(v)
	if t == nil {
		return nil
	}
	var out []int
	t.pathMu.Lock()
	for k := range t.paths {
		if k.fam == fam {
			out = append(out, k.dst)
		}
	}
	t.pathMu.Unlock()
	sort.Ints(out)
	return out
}

// ASesCrossed returns the distinct ASes appearing on any stored path
// for (vantage, family) — Table 2's "ASes crossed".
func (db *DB) ASesCrossed(v Vantage, fam topo.Family) map[int]bool {
	out := make(map[int]bool)
	t := db.lookup(v)
	if t == nil {
		return out
	}
	t.pathMu.Lock()
	defer t.pathMu.Unlock()
	for k, snaps := range t.paths {
		if k.fam != fam {
			continue
		}
		for _, s := range snaps {
			for _, a := range s.Path {
				out[a] = true
			}
		}
	}
	return out
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

// Merge folds another database into this one — the paper's "common
// repository at Penn aggregates the measurement data from the
// different vantage points". Site rows from other win on conflict;
// samples and DNS rows append (DNS history re-enters the delta
// encoder in canonical order); path histories are replayed through
// the change-collapsing insert.
func (db *DB) Merge(other *DB) {
	if db == other || other == nil {
		return
	}
	other.forEachSite(func(row SiteRow) { db.PutSite(row) })
	for v, t := range other.tables() {
		other.ForEachDNS(v, func(r DNSRow) { db.AddDNS(v, r) })
		other.ForEachSeries(v, func(site alexa.SiteID, fam topo.Family, ss []Sample) {
			for _, s := range ss {
				db.AddSample(v, site, fam, s)
			}
		})
		t.pathMu.Lock()
		for k, snaps := range t.paths {
			for _, snap := range snaps {
				db.AddPath(v, k.fam, k.dst, snap.Round, snap.Path)
			}
		}
		t.pathMu.Unlock()
	}
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
		t.oooMu.Lock()
		dnsRows += len(t.ooo)
		t.oooMu.Unlock()
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
