package store

import (
	"sort"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// This file is the read path over the columnar tables. DNS history is
// stored delta-encoded (see store.go), so every reader — the ForEach
// iterators, CSV export, and frozen Snapshots — goes through one
// shared walker that expands runs back to per-round rows in canonical
// (site, round) order. Because the walker's order is canonical rather
// than insertion order, equal databases always iterate (and
// serialize) identically regardless of worker interleaving.

// dnsView is the walker's input: captured table references with
// optional per-site observation caps (set when freezing a Snapshot so
// later appends stay invisible; nil = uncapped live reads).
type dnsView struct {
	extBase alexa.SiteID
	shards  [shards]dnsViewShard
	ooo     []DNSRow // sorted by (site, round)
}

type dnsViewShard struct {
	main, ext       []dnsHist
	spill           map[alexa.SiteID][]dnsRun
	mainObs, extObs []int32 // per-slot observation caps; nil = uncapped
	over            map[alexa.SiteID]frozenOverDNS
}

type frozenOverDNS struct {
	h   dnsHist
	obs int32 // -1 = uncapped
}

// dnsViewOf captures the vantage's DNS tables. Caller must hold every
// dns shard lock when live (caps=false); with caps=true it also
// computes the per-site observation counts that freeze the view.
func (t *vantageTable) dnsViewOf(res reservation, caps bool) *dnsView {
	t.oooMu.Lock()
	ooo := append([]DNSRow(nil), t.ooo...)
	t.oooMu.Unlock()
	sort.SliceStable(ooo, func(i, j int) bool {
		if ooo[i].Site != ooo[j].Site {
			return ooo[i].Site < ooo[j].Site
		}
		return ooo[i].Round < ooo[j].Round
	})
	view := &dnsView{extBase: res.extBase, ooo: ooo}
	for i := range t.dns {
		sh := &t.dns[i]
		vs := &view.shards[i]
		vs.main = sh.main[:len(sh.main):len(sh.main)]
		vs.ext = sh.ext[:len(sh.ext):len(sh.ext)]
		vs.spill = sh.spill
		if len(sh.over) > 0 {
			vs.over = make(map[alexa.SiteID]frozenOverDNS, len(sh.over))
			for id, h := range sh.over {
				o := frozenOverDNS{h: *h, obs: -1}
				if caps {
					o.obs = h.obs(sh.spill[id])
				}
				vs.over[id] = o
			}
		}
		if caps {
			vs.mainObs = make([]int32, len(vs.main))
			for slot := range vs.main {
				id := alexa.SiteID(slot<<shardBits | i)
				vs.mainObs[slot] = vs.main[slot].obs(sh.spill[id])
			}
			vs.extObs = make([]int32, len(vs.ext))
			for slot := range vs.ext {
				id := res.extBase + alexa.SiteID(slot<<shardBits|i)
				vs.extObs[slot] = vs.ext[slot].obs(sh.spill[id])
			}
		}
	}
	return view
}

// walkDNS expands the view to per-round rows in canonical (site,
// round) order. Out-of-order rows merge back into their site's
// timeline; duplicates follow the delta-encoded observation of the
// same round.
func (v *dnsView) walkDNS(fn func(DNSRow)) {
	v.walkRuns(func(site alexa.SiteID, runs []dnsRun, cap int32, oooRows []DNSRow) {
		emitted, oi := int32(0), 0
	expand:
		for _, r := range runs {
			for k := int32(0); k < r.count; k++ {
				if cap >= 0 && emitted >= cap {
					break expand
				}
				round := int(r.start + k)
				for oi < len(oooRows) && oooRows[oi].Round < round {
					fn(oooRows[oi])
					oi++
				}
				fn(r.row(site, k))
				emitted++
			}
		}
		for ; oi < len(oooRows); oi++ {
			fn(oooRows[oi])
		}
	})
}

// walkRuns visits every site with DNS history in ascending id order,
// handing fn the site's run list (shared scratch — do not retain), its
// observation cap (-1 = uncapped), and its out-of-order rows.
func (v *dnsView) walkRuns(fn func(site alexa.SiteID, runs []dnsRun, cap int32, ooo []DNSRow)) {
	var over []alexa.SiteID
	for i := range v.shards {
		for id := range v.shards[i].over {
			over = append(over, id)
		}
	}
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })

	var buf []dnsRun
	oi, vi := 0, 0
	emit := func(id alexa.SiteID, runs []dnsRun, cap int32) {
		// Out-of-order rows for sites the dense walk has passed (a site
		// can in principle appear only in the ooo log after a merge of
		// exotic histories) flush before the next site.
		for oi < len(v.ooo) && v.ooo[oi].Site < id {
			start := oi
			for oi < len(v.ooo) && v.ooo[oi].Site == v.ooo[start].Site {
				oi++
			}
			fn(v.ooo[start].Site, nil, -1, v.ooo[start:oi])
		}
		if len(runs) == 0 {
			return
		}
		start := oi
		for oi < len(v.ooo) && v.ooo[oi].Site == id {
			oi++
		}
		fn(id, runs, cap, v.ooo[start:oi])
	}
	emitOver := func(limit alexa.SiteID, all bool) {
		for vi < len(over) && (all || over[vi] < limit) {
			id := over[vi]
			o := v.shards[uint64(id)&(shards-1)].over[id]
			buf = o.h.runs(v.shards[uint64(id)&(shards-1)].spill[id], buf[:0])
			emit(id, buf, o.obs)
			vi++
		}
	}
	emitRange := func(base alexa.SiteID, pick func(s *dnsViewShard) ([]dnsHist, []int32)) {
		hists0, _ := pick(&v.shards[0])
		for slot := 0; slot < len(hists0); slot++ {
			for i := 0; i < shards; i++ {
				s := &v.shards[i]
				hists, obs := pick(s)
				if slot >= len(hists) || hists[slot].run[0].count == 0 {
					continue
				}
				id := base + alexa.SiteID(slot<<shardBits|i)
				emitOver(id, false)
				cap := int32(-1)
				if obs != nil {
					cap = obs[slot]
				}
				buf = hists[slot].runs(s.spill[id], buf[:0])
				emit(id, buf, cap)
			}
		}
	}
	emitRange(0, func(s *dnsViewShard) ([]dnsHist, []int32) { return s.main, s.mainObs })
	emitRange(v.extBase, func(s *dnsViewShard) ([]dnsHist, []int32) { return s.ext, s.extObs })
	emitOver(0, true)
	emit(alexa.SiteID(1)<<62, nil, -1) // flush trailing ooo rows
}

// lockedDNSView captures a live view under every DNS shard lock and
// runs fn over it; writers to other shards stay blocked for the
// duration, matching the old single-log lock semantics.
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
	fn(t.dnsViewOf(db.res, false))
}

// ForEachDNS visits every DNS row stored for a vantage in canonical
// (site, round) order, expanding the delta-encoded history row by
// row. fn runs under the DNS table locks: it must be quick and must
// not write to the same database.
func (db *DB) ForEachDNS(v Vantage, fn func(DNSRow)) {
	db.lockedDNSView(v, func(view *dnsView) { view.walkDNS(fn) })
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
			if ss := expandSeries(packed, dates); len(ss) > 0 {
				fn(site, fam, ss)
			}
		}
	}
}

var famBoth = [2]topo.Family{topo.V4, topo.V6}

// Snapshot is an immutable read view of a database, taken once with
// Freeze and then queried without further coordination. The view
// reflects the rows present at Freeze time: per-site observation caps
// and capped series lengths keep rows appended afterwards invisible.
// Site rows read through to the live columnar table (they are
// overwritten in place, not appended), so the contract callers should
// rely on is the simple one: freeze when no writer is active — for a
// campaign, between rounds.
type Snapshot struct {
	db       *DB
	vantages map[Vantage]*frozenVantage
}

type siteFamKey struct {
	site alexa.SiteID
	fam  topo.Family
}

type frozenSeries struct {
	packed []packedSample
}

type frozenVantage struct {
	dns     *dnsView
	sampled []alexa.SiteID
	series  map[siteFamKey]frozenSeries
	datesT  []time.Time // date dictionary at freeze; read-only below len
	paths   map[famDstKey][]PathSnapshot
}

// Freeze captures a Snapshot of the database: one short locked pass
// per table, after which reads need no locks. Expanded sample series
// come back round-sorted, as DB.ForEachSeries returns them.
func (db *DB) Freeze() *Snapshot {
	snap := &Snapshot{db: db, vantages: make(map[Vantage]*frozenVantage)}
	for v, t := range db.tables() {
		fv := &frozenVantage{series: make(map[siteFamKey]frozenSeries)}

		for i := range t.dns {
			t.dns[i].mu.Lock()
		}
		fv.dns = t.dnsViewOf(db.res, true)
		for i := range t.dns {
			t.dns[i].mu.Unlock()
		}

		dates := t.dateTable()
		var ids []alexa.SiteID
		for i := range t.samples {
			sh := &t.samples[i]
			sh.mu.Lock()
			capture := func(id alexa.SiteID, fam topo.Family, idx int32) {
				if idx < 0 {
					return
				}
				ss := sh.series[idx]
				fv.series[siteFamKey{id, fam}] = frozenSeries{packed: ss[:len(ss):len(ss)]}
				ids = append(ids, id)
			}
			for f, fam := range famBoth {
				for slot, idx := range sh.main[f] {
					capture(alexa.SiteID(slot<<shardBits|i), fam, idx)
				}
				for slot, idx := range sh.ext[f] {
					capture(db.res.extBase+alexa.SiteID(slot<<shardBits|i), fam, idx)
				}
				for id, idx := range sh.over[f] {
					capture(id, fam, idx)
				}
			}
			sh.mu.Unlock()
		}
		fv.sampled = dedupSortedSiteIDs(ids)
		fv.datesT = dates

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

// dedupSortedSiteIDs sorts ids and removes duplicates in place.
func dedupSortedSiteIDs(ids []alexa.SiteID) []alexa.SiteID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
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

// Site returns a site row. Reads through to the live site table.
func (s *Snapshot) Site(id alexa.SiteID) (SiteRow, bool) {
	return s.db.Site(id)
}

// SampledSites returns the distinct site ids with samples at vantage
// v, sorted. The slice is shared by every call: read-only.
func (s *Snapshot) SampledSites(v Vantage) []alexa.SiteID {
	if view := s.view(v); view != nil {
		return view.sampled
	}
	return nil
}

// Series returns the round-sorted samples for (vantage, site, family)
// expanded from the frozen packed series. The returned slice is a
// fresh copy.
func (s *Snapshot) Series(v Vantage, site alexa.SiteID, fam topo.Family) []Sample {
	view := s.view(v)
	if view == nil {
		return nil
	}
	fs, ok := view.series[siteFamKey{site, fam}]
	if !ok {
		return nil
	}
	return expandSeries(fs.packed, view.datesT)
}

// SeriesLen returns the number of samples for (vantage, site, family).
func (s *Snapshot) SeriesLen(v Vantage, site alexa.SiteID, fam topo.Family) int {
	if view := s.view(v); view != nil {
		return len(view.series[siteFamKey{site, fam}].packed)
	}
	return 0
}

// ForEachDNS visits every frozen DNS row for a vantage in canonical
// (site, round) order.
func (s *Snapshot) ForEachDNS(v Vantage, fn func(DNSRow)) {
	if view := s.view(v); view != nil {
		view.dns.walkDNS(fn)
	}
}

// ForEachDNSRuns visits the delta-encoded history directly: one call
// per stored run (site ascending), without expanding to per-round
// rows — the cheap way to answer "was this site ever dual" questions
// at paper scale. Out-of-order rows are visited as single-round runs.
func (s *Snapshot) ForEachDNSRuns(v Vantage, fn func(site alexa.SiteID, hasA, hasAAAA, identical bool, startRound, rounds int)) {
	view := s.view(v)
	if view == nil {
		return
	}
	view.dns.walkRuns(func(site alexa.SiteID, runs []dnsRun, cap int32, ooo []DNSRow) {
		emitted := int32(0)
		for _, r := range runs {
			n := r.count
			if cap >= 0 && emitted+n > cap {
				n = cap - emitted
			}
			if n <= 0 {
				break
			}
			fn(site, r.state&dnsHasA != 0, r.state&dnsHasAAAA != 0, r.state&dnsIdentical != 0, int(r.start), int(n))
			emitted += n
		}
		for _, row := range ooo {
			fn(row.Site, row.HasA, row.HasAAAA, row.Identical, row.Round, 1)
		}
	})
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
			if fs, ok := view.series[siteFamKey{site, fam}]; ok && len(fs.packed) > 0 {
				fn(site, fam, expandSeries(fs.packed, view.datesT))
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
