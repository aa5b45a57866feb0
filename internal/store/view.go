package store

import (
	"slices"
	"sort"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// This file is the read path over the columnar tables. DNS history is
// stored delta-encoded (see store.go), so every DNS reader — the
// ForEach iterators, CSV export and the section codec — goes through
// one shared walker that visits sites in canonical (site, round)
// order, expanding runs back to per-round rows for the row readers.
// Because the walker's order is canonical rather than insertion order,
// equal databases always iterate (and serialize) identically
// regardless of worker interleaving.

// dnsView is the walker's input: the vantage's DNS tables, read under
// every DNS shard lock.
type dnsView struct {
	extBase alexa.SiteID
	shards  [shards]dnsViewShard
}

type dnsViewShard struct {
	main, ext []dnsHist
	spill     map[alexa.SiteID][]dnsRun
	over      map[alexa.SiteID]*dnsHist
}

// walkDNS expands the view to per-round rows in canonical (site,
// round) order.
func (v *dnsView) walkDNS(fn func(DNSRow)) {
	v.walkRuns(0, snapAllSites, func(site alexa.SiteID, runs []dnsRun) {
		for _, r := range runs {
			for k := int32(0); k < r.count; k++ {
				fn(r.row(site, k))
			}
		}
	})
}

// walkRuns visits the sites in [lo, hi) with DNS history in ascending
// id order, handing fn each site's run list. It visits only the dense
// slots of [lo, hi) and the overflow ids inside it, so a shard frame's
// walk costs its own range, not the vantage's. An inline history is
// handed over as stored, without a copy, and a spilled one assembled
// in a scratch buffer the next site reuses: fn must neither retain nor
// modify runs. The view is lockedDNSView's, read under every DNS stripe
// lock of the vantage, so fn must not write to the same database.
func (v *dnsView) walkRuns(lo, hi alexa.SiteID, fn func(site alexa.SiteID, runs []dnsRun)) {
	var over []alexa.SiteID
	for i := range v.shards {
		for id := range v.shards[i].over {
			if lo <= id && id < hi {
				over = append(over, id)
			}
		}
	}
	slices.Sort(over)

	var buf []dnsRun
	emit := func(id alexa.SiteID, s *dnsViewShard, h *dnsHist) {
		switch {
		case h.run[1].state&dnsSpilled != 0:
			buf = h.runs(s.spill[id], buf[:0])
			fn(id, buf)
		case h.run[1].count != 0:
			fn(id, h.run[:])
		default:
			fn(id, h.run[:1])
		}
	}
	vi := 0
	emitOver := func(limit alexa.SiteID) {
		for ; vi < len(over) && over[vi] < limit; vi++ {
			s := &v.shards[uint64(over[vi])&(shards-1)]
			if h := s.over[over[vi]]; h.run[0].count != 0 {
				emit(over[vi], s, h)
			}
		}
	}
	emitRange := func(base alexa.SiteID, pick func(s *dnsViewShard) []dnsHist) {
		// A stripe's column is empty until its first write into the
		// range, so the longest one bounds the range's slots.
		var cols [shards][]dnsHist
		n := 0
		for i := range v.shards {
			cols[i] = pick(&v.shards[i])
			n = max(n, len(cols[i]))
		}
		for id := max(lo, base); id < min(hi, base+alexa.SiteID(n)<<shardBits); id++ {
			i := uint64(id) & (shards - 1)
			slot := int(id-base) >> shardBits
			if slot >= len(cols[i]) || cols[i][slot].run[0].count == 0 {
				continue
			}
			emitOver(id)
			emit(id, &v.shards[i], &cols[i][slot])
		}
	}
	emitRange(0, func(s *dnsViewShard) []dnsHist { return s.main })
	emitRange(v.extBase, func(s *dnsViewShard) []dnsHist { return s.ext })
	emitOver(hi)
}

// lockedDNSView captures a live view under every DNS stripe lock of
// the vantage, taken in ascending order, and runs fn over it; writers
// to the vantage stay blocked for the duration.
func (db *DB) lockedDNSView(v Vantage, fn func(*dnsView)) {
	t := db.lookup(v)
	if t == nil {
		return
	}
	for i := range t.dns {
		t.dns[i].mu.Lock()
	}
	defer func() {
		for i := range t.dns {
			t.dns[i].mu.Unlock()
		}
	}()
	view := &dnsView{extBase: db.res.extBase}
	for i := range t.dns {
		sh := &t.dns[i]
		view.shards[i] = dnsViewShard{main: sh.main, ext: sh.ext, spill: sh.spill, over: sh.over}
	}
	fn(view)
}

// lockDNS takes every DNS stripe lock of the vantage in ascending
// order, as lockedDNSView does: the one order in which a pass holds
// several. unlockDNS releases them.
func (t *vantageTable) lockDNS() {
	for i := range t.dns {
		t.dns[i].mu.Lock()
	}
}

func (t *vantageTable) unlockDNS() {
	for i := range t.dns {
		t.dns[i].mu.Unlock()
	}
}

// ForEachDNS visits every DNS row stored for a vantage in canonical
// (site, round) order, expanding the delta-encoded history row by
// row. fn runs under the DNS table locks: it must be quick and must
// not write to the same database.
func (db *DB) ForEachDNS(v Vantage, fn func(DNSRow)) {
	db.lockedDNSView(v, func(view *dnsView) { view.walkDNS(fn) })
}

// ForEachDNSRun visits every DNS run stored for a vantage in canonical
// (site, round) order: row is the run's first row, and its site
// observed row's outcome at the n consecutive rounds from row.Round.
// Expanded, the runs are ForEachDNS's rows, at one call per state
// change instead of one per round. fn runs under the DNS table locks:
// it must be quick and must not write to the same database.
func (db *DB) ForEachDNSRun(v Vantage, fn func(row DNSRow, n int)) {
	db.lockedDNSView(v, func(view *dnsView) {
		view.walkRuns(0, snapAllSites, func(site alexa.SiteID, runs []dnsRun) {
			for _, r := range runs {
				fn(r.row(site, 0), int(r.count))
			}
		})
	})
}

// ForEachSeries visits every (site, family) sample series stored for
// a vantage in ascending (site, family) order. The series passed to
// fn is expanded from the packed storage — a fresh copy fn may keep.
// fn must not write to the same database.
func (db *DB) ForEachSeries(v Vantage, fn func(site alexa.SiteID, fam topo.Family, series []Sample)) {
	t := db.lookup(v)
	if t == nil {
		return
	}
	dates := t.dateTable()
	for _, site := range db.sampledSites(v) {
		sh := &t.samples[uint64(site)&(shards-1)]
		for _, fam := range famBoth {
			sh.mu.Lock()
			var packed []packedSample
			if idx := sh.seriesIdx(db.res, site, fam); idx >= 0 {
				packed = append(packed, sh.series[idx]...)
			}
			sh.mu.Unlock()
			if len(packed) > 0 {
				fn(site, fam, appendSeries(nil, packed, dates))
			}
		}
	}
}

var famBoth = [2]topo.Family{topo.V4, topo.V6}

// Snapshot is an immutable read view of a database, taken once with
// Freeze and then queried without further coordination. It holds the
// sample series and AS paths present at Freeze time, capacity-clamped
// so rows appended afterwards stay invisible; DNS history is not part
// of it (the live DB's iterators serve that). Site rows read through
// to the live columnar table (they are overwritten in place, not
// appended), so the contract callers should rely on is the simple
// one: freeze when no writer is active — for a campaign, between
// rounds.
type Snapshot struct {
	db       *DB
	vantages map[Vantage]*frozenVantage
}

type siteFamKey struct {
	site alexa.SiteID
	fam  topo.Family
}

type frozenVantage struct {
	sampled []alexa.SiteID
	series  map[alexa.SiteID][2][]packedSample // indexed by family
	datesT  []time.Time                        // date dictionary at freeze; read-only below len
	paths   map[famDstKey][]PathSnapshot
}

// Freeze captures a Snapshot of the database: short locked passes per
// table, after which reads need no locks. It walks the stored series,
// not the reserved id ranges, so it costs O(series). Expanded sample
// series come back round-sorted, as DB.ForEachSeries returns them.
func (db *DB) Freeze() *Snapshot {
	snap := &Snapshot{db: db, vantages: make(map[Vantage]*frozenVantage)}
	for v, t := range db.tables() {
		n := 0
		for i := range t.samples {
			sh := &t.samples[i]
			sh.mu.Lock()
			n += len(sh.owner)
			sh.mu.Unlock()
		}
		fv := &frozenVantage{series: make(map[alexa.SiteID][2][]packedSample, n)}
		for i := range t.samples {
			sh := &t.samples[i]
			sh.mu.Lock()
			for idx, o := range sh.owner {
				ss := sh.series[idx]
				fams := fv.series[o.site]
				fams[o.fam] = ss[:len(ss):len(ss)]
				fv.series[o.site] = fams
			}
			sh.mu.Unlock()
		}
		ids := make([]alexa.SiteID, 0, len(fv.series))
		for id := range fv.series {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		fv.sampled = ids
		// Read after the series: every captured sample's date is in it.
		fv.datesT = t.dateTable()

		t.pathMu.Lock()
		fv.paths = make(map[famDstKey][]PathSnapshot, len(t.paths))
		for k, snaps := range t.paths {
			fv.paths[k] = snaps[:len(snaps):len(snaps)]
		}
		t.pathMu.Unlock()

		snap.vantages[v] = fv
	}
	return snap
}

func (s *Snapshot) view(v Vantage) *frozenVantage { return s.vantages[v] }

// Vantages returns the vantages captured in this snapshot, sorted —
// the same order DB.Vantages reports, so analyses built over a frozen
// view and over a loaded database walk vantages identically.
func (s *Snapshot) Vantages() []Vantage {
	out := make([]Vantage, 0, len(s.vantages))
	for v := range s.vantages {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SiteOrigins returns a site's first rank and the origin ASes of its
// A and AAAA records: its row without the host, which a dense row
// would have to format. Reads through to the live site table.
func (s *Snapshot) SiteOrigins(id alexa.SiteID) (firstRank, v4AS, v6AS int, ok bool) {
	row, _, ok := s.db.storedSite(id)
	return row.FirstRank, row.V4AS, row.V6AS, ok
}

// SampledSites returns the distinct site ids with samples at vantage
// v, sorted. The slice is shared by every call: read-only.
func (s *Snapshot) SampledSites(v Vantage) []alexa.SiteID {
	if view := s.view(v); view != nil {
		return view.sampled
	}
	return nil
}

// Series appends the round-sorted samples for (vantage, site, family)
// to dst and returns the extended slice. A reader walking many sites
// passes the previous result resliced to zero length, so the expansion
// reuses one buffer; nil yields a fresh copy.
func (s *Snapshot) Series(dst []Sample, v Vantage, site alexa.SiteID, fam topo.Family) []Sample {
	view := s.view(v)
	if view == nil {
		return dst
	}
	return appendSeries(dst, view.series[site][fam], view.datesT)
}

// ForEachSeries visits every (site, family) series for a vantage in
// (site, family) order. The series is a fresh expanded copy.
func (s *Snapshot) ForEachSeries(v Vantage, fn func(site alexa.SiteID, fam topo.Family, series []Sample)) {
	view := s.view(v)
	if view == nil {
		return
	}
	for _, site := range view.sampled {
		for _, fam := range famBoth {
			if packed := view.series[site][fam]; len(packed) > 0 {
				fn(site, fam, appendSeries(nil, packed, view.datesT))
			}
		}
	}
}

// LatestPath returns the most recent AS path to dst, or nil, without
// copying. Read-only.
func (s *Snapshot) LatestPath(v Vantage, fam topo.Family, dst int) []int {
	view := s.view(v)
	if view == nil {
		return nil
	}
	snaps := view.paths[famDstKey{fam, dst}]
	if len(snaps) == 0 {
		return nil
	}
	return snaps[len(snaps)-1].Path
}

// PathChanged reports whether the path to dst changed during the
// study (more than one stored snapshot).
func (s *Snapshot) PathChanged(v Vantage, fam topo.Family, dst int) bool {
	view := s.view(v)
	return view != nil && len(view.paths[famDstKey{fam, dst}]) > 1
}

// PathDestinations returns all destination ASes with a stored path for
// (vantage, family), sorted.
func (s *Snapshot) PathDestinations(v Vantage, fam topo.Family) []int {
	view := s.view(v)
	if view == nil {
		return nil
	}
	out := make([]int, 0, len(view.paths))
	for k := range view.paths {
		if k.fam == fam {
			out = append(out, k.dst)
		}
	}
	sort.Ints(out)
	return out
}

// ASesCrossed returns the distinct ASes appearing on any stored path
// for (vantage, family).
func (s *Snapshot) ASesCrossed(v Vantage, fam topo.Family) map[int]bool {
	out := make(map[int]bool)
	view := s.view(v)
	if view == nil {
		return out
	}
	for k, snaps := range view.paths {
		if k.fam != fam {
			continue
		}
		for _, snap := range snaps {
			for _, a := range snap.Path {
				out[a] = true
			}
		}
	}
	return out
}
