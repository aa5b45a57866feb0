package store

// Checkpoint chains: a CheckpointBackend writes a whole snapshot (a
// base, SaveBinary's bytes) only now and then, and in between a
// segment holding what changed since its last commit, so a checkpoint
// costs O(changes) instead of re-encoding the whole history.
//
// A segment is exact because the database keeps, per table stripe,
// round watermarks (watermark in store.go) and, per site row, a dirty
// bit. A checkpoint mark (DB.mark) records each vantage's mark round M
// — one past the newest round it stores — and resets the low
// watermarks and dirty bits. While every append since the mark is at
// a round >= M (the low watermarks prove it), everything added since
// is exactly:
//
//   - per site, its DNS runs clipped to rounds >= M. A site whose open
//     run just grew to the newest round is one id in a run-length
//     encoded id list (its state is the base's); any other changed
//     history is written out as its clipped runs;
//   - the out-of-order DNS rows past the mark's log length;
//   - the sample dates past the mark's dictionary length, and per
//     series the samples at rounds >= M;
//   - per path key, the snapshots at rounds >= M;
//   - the site rows whose dirty bit is set, plus every overflow row.
//
// An append below M (Merge and MergeShard can make one) makes the
// next checkpoint a base. A segment file is the snapshot container
// (binary.go) with its own magic: a state section recording the mark
// it continues (per vantage: mark round, DNS row, out-of-order row,
// sample row, date and path snapshot counts; the site row count),
// then sites, and per vantage dns, samples and paths. Applying a
// segment to a database in any other state fails as a
// *CorruptSnapshotError.

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// segMagic opens a checkpoint segment file.
var segMagic = [8]byte{'v', '6', 'w', 'e', 'b', 'S', 'G', 0}

// segState is the segment's leading section: the mark it continues.
const segState byte = 5

// Chain file names inside a ck- directory holding segments: the base
// under a name no build reads as a whole snapshot, then the segments
// numbered from 1.
const (
	chainBaseSuffix = ".base" + BinaryExt
	segExt          = ".v6seg"
)

func segName(name string, k int) string { return fmt.Sprintf("%s.seg-%06d%s", name, k, segExt) }

// maxMarkCount bounds the row counts a segment's state section may
// claim, far above any campaign.
const maxMarkCount = 1 << 48

// vantageMark is one vantage's state at a checkpoint mark.
type vantageMark struct {
	v          Vantage
	round      int32 // one past the newest round stored; 0 when none
	dnsRows    int   // delta-encoded DNS observations
	ooo        int   // out-of-order log length
	sampleRows int
	dates      int // date dictionary length
	paths      int // stored path snapshots
}

// dbMark is a database's state at a checkpoint mark: what a segment
// written next continues.
type dbMark struct {
	res      reservation
	sites    int
	vantages []vantageMark // sorted by name
}

// vantage returns v's mark; a vantage created after the mark starts
// from the zero mark.
func (m *dbMark) vantage(v Vantage) vantageMark {
	for _, vm := range m.vantages {
		if vm.v == v {
			return vm
		}
	}
	return vantageMark{v: v}
}

func (m *dbMark) equal(o *dbMark) bool {
	if m.sites != o.sites || len(m.vantages) != len(o.vantages) {
		return false
	}
	for i := range m.vantages {
		if m.vantages[i] != o.vantages[i] {
			return false
		}
	}
	return true
}

// state returns the database's current mark state; with reset it also
// starts a new change epoch, clearing the low watermarks and the site
// dirty bits (see mark).
func (db *DB) state(reset bool) dbMark {
	m := dbMark{res: db.res}
	for i := range db.sites {
		sh := &db.sites[i]
		sh.mu.Lock()
		m.sites += sh.n + len(sh.over)
		if reset {
			clear(sh.main.dirty)
			clear(sh.ext.dirty)
		}
		sh.mu.Unlock()
	}
	names := db.Vantages()
	tables := db.tables()
	for _, v := range names {
		m.vantages = append(m.vantages, tables[v].state(v, reset))
	}
	return m
}

func (t *vantageTable) state(v Vantage, reset bool) vantageMark {
	vm := vantageMark{v: v}
	hi := int32(-1)
	for i := range t.dns {
		sh := &t.dns[i]
		sh.mu.Lock()
		vm.dnsRows += sh.rows
		hi = max(hi, sh.hi)
		if reset {
			sh.lo = noLow
		}
		sh.mu.Unlock()
	}
	for i := range t.samples {
		sh := &t.samples[i]
		sh.mu.Lock()
		vm.sampleRows += sh.rows
		hi = max(hi, sh.hi)
		if reset {
			sh.lo = noLow
		}
		sh.mu.Unlock()
	}
	t.oooMu.Lock()
	vm.ooo = len(t.ooo)
	t.oooMu.Unlock()
	vm.dates = len(t.dateTable())
	t.pathMu.Lock()
	for _, snaps := range t.paths {
		vm.paths += len(snaps)
	}
	hi = max(hi, t.pathHi)
	if reset {
		t.pathLo = noLow
	}
	t.pathMu.Unlock()
	vm.round = hi + 1
	return vm
}

// low returns the lowest round appended to the vantage since the last
// mark, noLow when none.
func (t *vantageTable) low() int32 {
	lo := int32(noLow)
	for i := range t.dns {
		sh := &t.dns[i]
		sh.mu.Lock()
		lo = min(lo, sh.lo)
		sh.mu.Unlock()
	}
	for i := range t.samples {
		sh := &t.samples[i]
		sh.mu.Lock()
		lo = min(lo, sh.lo)
		sh.mu.Unlock()
	}
	t.pathMu.Lock()
	lo = min(lo, t.pathLo)
	t.pathMu.Unlock()
	return lo
}

// watermarkRows widens the DNS watermarks for out-of-order rows
// landed straight in the log.
func (t *vantageTable) watermarkRows(rows []DNSRow) {
	for _, row := range rows {
		sh := &t.dns[uint64(row.Site)&(shards-1)]
		sh.mu.Lock()
		watermark(&sh.lo, &sh.hi, int32(row.Round), int32(row.Round))
		sh.mu.Unlock()
	}
}

// mark starts a new change epoch and returns the state a segment
// written next continues, with the epoch's generation. It must not run
// concurrently with a writer: checkpoints are taken between rounds.
func (db *DB) mark() (dbMark, uint64) {
	m := db.state(true)
	return m, db.markGen.Add(1)
}

// segmentReservable reports whether a segment may grow a database's
// reservation from from to to: never shrinking, keeping an extended
// base once set, and at most doubling the reserved ids, so applying a
// segment allocates no more than its base already did.
func segmentReservable(from, to reservation) bool {
	if to == from {
		return true
	}
	if to.main < from.main || to.ext < from.ext || (from.ext > 0 && to.extBase != from.extBase) {
		return false
	}
	return to.main+to.ext <= 2*(from.main+from.ext)
}

// continues reports whether a segment written now against mark m
// would be exact: no vantage took an append below its mark round and
// the reservation grew within segmentReservable.
func (db *DB) continues(m dbMark) bool {
	if !segmentReservable(m.res, db.res) {
		return false
	}
	for v, t := range db.tables() {
		if t.low() < m.vantage(v).round {
			return false
		}
	}
	return true
}

// writeSegment writes the changes since mark from as one segment file.
func (db *DB) writeSegment(f *os.File, opt BinaryOptions, from dbMark) error {
	fw, err := newFrameWriter(f, opt)
	if err != nil {
		return err
	}
	var w wbuf
	n := from.appendState(&w)
	if err := fw.section(segState, "", w.b, n); err != nil {
		return err
	}
	w = wbuf{}
	n = db.appendSegSites(&w)
	if err := fw.section(ShardSites, "", w.b, n); err != nil {
		return err
	}
	names := db.Vantages()
	tables := db.tables()
	for _, v := range names {
		t := tables[v]
		vm := from.vantage(v)
		w = wbuf{}
		n = t.appendSegDNS(&w, db.res, vm.round, t.state(v, false).round, vm.ooo)
		if err := fw.section(ShardDNS, v, w.b, n); err != nil {
			return err
		}
		w = wbuf{}
		n = t.appendSegSamples(&w, db.res, vm.round, vm.dates)
		if err := fw.section(ShardSamples, v, w.b, n); err != nil {
			return err
		}
		w = wbuf{}
		n = t.appendSegPaths(&w, vm.round)
		if err := fw.section(snapPaths, v, w.b, n); err != nil {
			return err
		}
	}
	return fw.finish(segMagic, db.res)
}

// appendState encodes the mark: site rows, then per vantage (sorted)
// its name, mark round and counts.
func (m *dbMark) appendState(w *wbuf) int {
	w.uvarint(uint64(m.sites))
	w.uvarint(uint64(len(m.vantages)))
	for _, vm := range m.vantages {
		w.uvarint(uint64(len(vm.v)))
		w.bytes([]byte(vm.v))
		for _, x := range [...]int{int(vm.round), vm.dnsRows, vm.ooo, vm.sampleRows, vm.dates, vm.paths} {
			w.uvarint(uint64(x))
		}
	}
	return 1 + len(m.vantages)
}

func decodeState(r *rbuf) dbMark {
	var m dbMark
	sites := r.uvarint()
	if sites > maxMarkCount {
		r.fail("store: segment state: site count %d out of range", sites)
	}
	m.sites = int(sites)
	n := r.count()
	for i := uint64(0); i < n && r.err == nil; i++ {
		vlen := r.count()
		if r.err != nil {
			break
		}
		vm := vantageMark{v: Vantage(r.b[:vlen])}
		r.b = r.b[vlen:]
		if i > 0 && vm.v <= m.vantages[i-1].v {
			r.fail("store: segment state: vantages out of order at %q", vm.v)
			break
		}
		var x [6]uint64
		for k := range x {
			x[k] = r.uvarint()
		}
		if x[0] > maxRound {
			r.fail("store: segment state: mark round %d out of range", x[0])
			break
		}
		for _, c := range x[1:] {
			if c > maxMarkCount {
				r.fail("store: segment state: count %d out of range", c)
			}
		}
		vm.round = int32(x[0])
		vm.dnsRows, vm.ooo, vm.sampleRows, vm.dates, vm.paths = int(x[1]), int(x[2]), int(x[3]), int(x[4]), int(x[5])
		m.vantages = append(m.vantages, vm)
	}
	return m
}

// appendSegSites encodes the dirty dense rows and every overflow row
// in the snapshot sites format (ascending ids, decoded by
// mergeShardSites).
func (db *DB) appendSegSites(w *wbuf) int {
	var ids []alexa.SiteID
	for i := range db.sites {
		sh := &db.sites[i]
		sh.mu.Lock()
		for table, c := range [2]*siteCols{&sh.main, &sh.ext} {
			base := alexa.SiteID(0)
			if table == 1 {
				base = db.res.extBase
			}
			for wi, word := range c.dirty {
				for word != 0 {
					slot := wi<<6 | bits.TrailingZeros64(word)
					word &= word - 1
					ids = append(ids, base+alexa.SiteID(slot<<shardBits|i))
				}
			}
		}
		for id := range sh.over {
			ids = append(ids, id)
		}
		sh.mu.Unlock()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var rows wbuf
	prev := alexa.SiteID(-1)
	for _, id := range ids {
		sh := db.siteShard(id)
		sh.mu.Lock()
		var row SiteRow
		derived := false
		if table, slot := db.res.locate(id); table >= 0 {
			cols := &sh.main
			if table == 1 {
				cols = &sh.ext
			}
			row, derived = sh.storedRow(cols, slot, id)
		} else {
			row = sh.over[id]
		}
		sh.mu.Unlock()
		rows.siteRow(prev, row, derived)
		prev = id
	}
	w.uvarint(uint64(len(ids)))
	w.bytes(rows.b)
	return len(ids)
}

// appendSegDNS encodes the vantage's DNS changes since mark round
// from, up to round to (exclusive), with the out-of-order log read
// from index oooFrom: to; the id runs (start, length) of sites whose
// open run grew from before from to exactly to; every other changed
// site as (id, run count, runs as gap/length/state with the gap of
// the first against from); and the new out-of-order rows as (site,
// round, state).
func (t *vantageTable) appendSegDNS(w *wbuf, res reservation, from, to int32, oooFrom int) int {
	for i := range t.dns {
		t.dns[i].mu.Lock()
	}
	defer func() {
		for i := range t.dns {
			t.dns[i].mu.Unlock()
		}
	}()
	var grown, other wbuf
	nGrown, nOther := 0, 0
	runStart, runEnd := alexa.SiteID(0), alexa.SiteID(0)
	flush := func() {
		if runEnd > runStart {
			grown.uvarint(uint64(runStart))
			grown.uvarint(uint64(runEnd - runStart))
			nGrown++
		}
	}
	var buf []dnsRun
	visit := func(sh *dnsShard, id alexa.SiteID, h *dnsHist) {
		var spill []dnsRun
		if h.run[1].state&dnsSpilled != 0 {
			spill = sh.spill[id]
		}
		last := h.last(spill)
		end := last.start + last.count
		if end <= from {
			return
		}
		if last.start < from && end == to {
			if id != runEnd {
				flush()
				runStart = id
			}
			runEnd = id + 1
			return
		}
		buf = h.runs(spill, buf[:0])
		k := len(buf)
		for k > 0 && buf[k-1].start+buf[k-1].count > from {
			k--
		}
		other.uvarint(uint64(id))
		other.uvarint(uint64(len(buf) - k))
		cursor := from
		for _, r := range buf[k:] {
			start := max(r.start, from)
			other.uvarint(uint64(start - cursor))
			other.uvarint(uint64(r.start + r.count - start))
			other.byteVal(r.state & dnsStateMask)
			cursor = r.start + r.count
		}
		nOther++
	}
	var hists [shards][]dnsHist
	walk := func(base alexa.SiteID) {
		for slot := 0; slot < len(hists[0]); slot++ {
			for i := range hists {
				if slot < len(hists[i]) && hists[i][slot].run[0].count != 0 {
					visit(&t.dns[i], base+alexa.SiteID(slot<<shardBits|i), &hists[i][slot])
				}
			}
		}
	}
	for i := range t.dns {
		hists[i] = t.dns[i].main
	}
	walk(0)
	for i := range t.dns {
		hists[i] = t.dns[i].ext
	}
	walk(res.extBase)
	var over []alexa.SiteID
	for i := range t.dns {
		for id := range t.dns[i].over {
			over = append(over, id)
		}
	}
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
	for _, id := range over {
		sh := &t.dns[uint64(id)&(shards-1)]
		if h := sh.over[id]; h.run[0].count != 0 {
			visit(sh, id, h)
		}
	}
	flush()

	t.oooMu.Lock()
	ooo := t.ooo[oooFrom:]
	t.oooMu.Unlock()
	w.uvarint(uint64(to))
	w.uvarint(uint64(nGrown))
	w.bytes(grown.b)
	w.uvarint(uint64(nOther))
	w.bytes(other.b)
	w.uvarint(uint64(len(ooo)))
	for _, row := range ooo {
		w.uvarint(uint64(row.Site))
		w.uvarint(uint64(row.Round))
		w.byteVal(dnsState(row.HasA, row.HasAAAA, row.Identical))
	}
	return nGrown + nOther + len(ooo)
}

// appendSegSamples encodes the vantage's sample changes since mark
// round from: the dates past index datesFrom (fixed 8-byte unix
// nanos), then per series with samples at rounds >= from: site id,
// family byte, count and the samples in the shard-wire format.
func (t *vantageTable) appendSegSamples(w *wbuf, res reservation, from int32, datesFrom int) int {
	var rows wbuf
	n := 0
	for i := range t.samples {
		sh := &t.samples[i]
		sh.mu.Lock()
		if sh.lo == noLow {
			sh.mu.Unlock()
			continue
		}
		emit := func(id alexa.SiteID, fam topo.Family, idx int32) {
			if idx < 0 {
				return
			}
			series := sh.series[idx]
			k := len(series)
			for k > 0 && series[k-1].round >= from {
				k--
			}
			if k == len(series) {
				return
			}
			rows.uvarint(uint64(id))
			rows.byteVal(byte(fam))
			rows.samples(series[k:])
			n++
		}
		for f, fam := range famBoth {
			for slot, idx := range sh.main[f] {
				emit(alexa.SiteID(slot<<shardBits|i), fam, idx)
			}
			for slot, idx := range sh.ext[f] {
				emit(res.extBase+alexa.SiteID(slot<<shardBits|i), fam, idx)
			}
			over := make([]alexa.SiteID, 0, len(sh.over[f]))
			for id := range sh.over[f] {
				over = append(over, id)
			}
			sort.Slice(over, func(a, b int) bool { return over[a] < over[b] })
			for _, id := range over {
				emit(id, fam, sh.over[f][id])
			}
		}
		sh.mu.Unlock()
	}
	dates := t.dateTable()[datesFrom:]
	w.uvarint(uint64(len(dates)))
	for _, d := range dates {
		w.u64(uint64(d.UnixNano()))
	}
	w.uvarint(uint64(n))
	w.bytes(rows.b)
	return n + len(dates)
}

// appendSegPaths encodes, per path key with snapshots at rounds >=
// from (keys in the canonical order), the family, destination and
// those snapshots as in the snapshot paths section.
func (t *vantageTable) appendSegPaths(w *wbuf, from int32) int {
	t.pathMu.Lock()
	defer t.pathMu.Unlock()
	var keys []famDstKey
	if t.pathLo != noLow {
		for k, snaps := range t.paths {
			if n := len(snaps); n > 0 && int32(snaps[n-1].Round) >= from {
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.fam != b.fam {
			return a.fam < b.fam
		}
		return a.dst < b.dst
	})
	w.uvarint(uint64(len(keys)))
	for _, k := range keys {
		snaps := t.paths[k]
		j := len(snaps)
		for j > 0 && int32(snaps[j-1].Round) >= from {
			j--
		}
		w.byteVal(byte(k.fam))
		w.uvarint(uint64(k.dst))
		w.pathSnaps(snaps[j:])
	}
	return len(keys)
}

// applySegment decodes one segment file's bytes onto db, which must be
// in the state the segment continues. Every failure is a
// *CorruptSnapshotError; decoding allocates O(len(data)) plus at most
// db's own reservation again.
func applySegment(db *DB, path string, data []byte) error {
	h, secs, _, err := parseFrames(path, data, segMagic)
	if err != nil {
		return err
	}
	if len(secs) == 0 || secs[0].section != segState {
		return corruptf(path, "state", "segment does not open with its state section")
	}
	var from dbMark
	for i, s := range secs {
		payload, err := sectionPayload(path, data, s)
		if err != nil {
			return err
		}
		r := &rbuf{b: payload}
		vm := from.vantage(s.vantage)
		switch s.section {
		case segState:
			if i > 0 {
				return corruptf(path, "state", "state section at position %d", i)
			}
			from = decodeState(r)
			if r.err == nil {
				if got := db.state(false); !got.equal(&from) {
					r.fail("chain mismatch: segment continues %d sites, %+v; database holds %d sites, %+v",
						from.sites, from.vantages, got.sites, got.vantages)
				}
			}
			// Grow the reservation as the live database did, unless the
			// loaded chain could not take it (see decodeBinarySnapshot).
			to := reservation{main: int(h.mainIDs), extBase: alexa.SiteID(h.extBase), ext: int(h.extIDs)}
			if r.err == nil && to != db.res && segmentReservable(db.res, to) {
				db.Reserve(to.main, to.extBase, to.ext)
			}
		case ShardSites:
			err = db.mergeShardSites(r, 0, snapAllSites)
		case ShardDNS:
			err = db.table(s.vantage).applySegDNS(r, db.res, vm.round)
		case ShardSamples:
			err = db.table(s.vantage).applySegSamples(r, db.res, vm.round)
		case snapPaths:
			err = db.applySegPaths(r, s.vantage, vm.round)
		}
		if err == nil {
			err = r.err
		}
		if err == nil && len(r.b) != 0 {
			err = fmt.Errorf("%d trailing bytes", len(r.b))
		}
		if err != nil {
			return corrupt(path, sectionName(s.section, s.vantage), err)
		}
	}
	return nil
}

// applySegDNS decodes appendSegDNS's payload for mark round from.
func (t *vantageTable) applySegDNS(r *rbuf, res reservation, from int32) error {
	to64 := r.uvarint()
	if r.err == nil && (to64 > maxRound || int32(to64) < from) {
		r.fail("store: segment dns: round %d before the mark %d or out of range", to64, from)
	}
	to := int32(to64)
	nGrown := r.count()
	for k := uint64(0); k < nGrown && r.err == nil; k++ {
		start, n := r.uvarint(), r.uvarint()
		if r.err != nil {
			break
		}
		if n == 0 || to == from || start >= uint64(snapAllSites) || n > uint64(snapAllSites)-start {
			r.fail("store: segment dns: bad grown id run [%d,+%d) for rounds [%d,%d)", start, n, from, to)
			break
		}
		for id := alexa.SiteID(start); id < alexa.SiteID(start+n) && r.err == nil; id++ {
			t.growRun(r, res, id, from, to)
		}
	}
	nOther := r.count()
	for k := uint64(0); k < nOther && r.err == nil; k++ {
		id := r.uvarint()
		nRuns := r.count()
		if r.err == nil && (id >= uint64(snapAllSites) || nRuns == 0) {
			r.fail("store: segment dns: bad site %d with %d runs", id, nRuns)
		}
		site := alexa.SiteID(id)
		cursor := uint64(from)
		for j := uint64(0); j < nRuns && r.err == nil; j++ {
			gap, cnt, state := r.uvarint(), r.uvarint(), r.byteVal()
			if r.err != nil {
				break
			}
			if cnt == 0 || gap > maxRound || cnt > maxRound || cursor+gap+cnt > maxRound {
				r.fail("store: segment dns: site %d run rounds out of range", site)
				break
			}
			start := cursor + gap
			cursor = start + cnt
			sh := &t.dns[uint64(site)&(shards-1)]
			sh.mu.Lock()
			ooo := sh.addRun(sh.hist(res, site, true), site, int32(start), int32(cnt), state&dnsStateMask)
			sh.mu.Unlock()
			if ooo {
				r.fail("store: segment dns: site %d run at round %d precedes its history's end", site, start)
			}
		}
	}
	nOoo := r.count()
	rows := make([]DNSRow, 0, nOoo)
	for k := uint64(0); k < nOoo && r.err == nil; k++ {
		site, round, state := r.uvarint(), r.uvarint(), r.byteVal()
		if r.err != nil {
			break
		}
		if site >= uint64(snapAllSites) || round > maxRound {
			r.fail("store: segment dns: ooo row (%d, %d) out of range", site, round)
			break
		}
		rows = append(rows, DNSRow{
			Site: alexa.SiteID(site), Round: int(round),
			HasA: state&dnsHasA != 0, HasAAAA: state&dnsHasAAAA != 0, Identical: state&dnsIdentical != 0,
		})
	}
	if r.err == nil && len(rows) > 0 {
		t.oooMu.Lock()
		t.ooo = append(t.ooo, rows...)
		t.oooMu.Unlock()
		t.watermarkRows(rows)
	}
	return r.err
}

// growRun extends site id's open run, which must end at mark round
// from, to round to.
func (t *vantageTable) growRun(r *rbuf, res reservation, id alexa.SiteID, from, to int32) {
	sh := &t.dns[uint64(id)&(shards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h := sh.hist(res, id, false)
	if h == nil || h.run[0].count == 0 {
		r.fail("store: segment dns: site %d has no history to extend", id)
		return
	}
	var spill []dnsRun
	if h.run[1].state&dnsSpilled != 0 {
		spill = sh.spill[id]
	}
	last := h.last(spill)
	if end := last.start + last.count; end != from {
		r.fail("store: segment dns: site %d history ends at round %d, not the mark %d", id, end, from)
		return
	}
	sh.addRun(h, id, from, to-from, last.state)
}

// applySegSamples decodes appendSegSamples's payload for mark round
// from.
func (t *vantageTable) applySegSamples(r *rbuf, res reservation, from int32) error {
	nDates := r.count()
	for i := uint64(0); i < nDates && r.err == nil; i++ {
		nanos := int64(r.u64())
		if r.err != nil {
			break
		}
		d := time.Unix(0, nanos).UTC()
		t.dateMu.RLock()
		_, dup := t.dateIdx[d]
		t.dateMu.RUnlock()
		if dup {
			r.fail("store: segment samples: date %v already in the dictionary", d)
			break
		}
		t.dateRef(d)
	}
	nDict := uint64(len(t.dateTable()))
	n := r.count()
	for i := uint64(0); i < n && r.err == nil; i++ {
		id := r.uvarint()
		fam := topo.Family(r.byteVal())
		cnt := r.count()
		if r.err != nil {
			break
		}
		if id >= uint64(snapAllSites) || (fam != topo.V4 && fam != topo.V6) || cnt == 0 {
			r.fail("store: segment samples: bad series (%d, %d) of %d samples", id, fam, cnt)
			break
		}
		site := alexa.SiteID(id)
		sh := &t.samples[uint64(site)&(shards-1)]
		sh.mu.Lock()
		for k := uint64(0); k < cnt && r.err == nil; k++ {
			round, dateIdx, page, dlCI := r.uvarint(), r.uvarint(), r.uvarint(), r.uvarint()
			speed := r.u64()
			if r.err != nil {
				break
			}
			if round < uint64(from) || round > maxRound || dateIdx >= nDict || page > math.MaxInt32 || dlCI > math.MaxUint32 {
				r.fail("store: segment samples: site %d has out-of-range sample fields", site)
				break
			}
			sh.add(res, site, fam, packedSample{
				round: int32(round), dateIdx: int32(dateIdx),
				page: int32(page), dlCI: uint32(dlCI), speed: math.Float64frombits(speed),
			})
		}
		sh.mu.Unlock()
	}
	return r.err
}

// applySegPaths decodes appendSegPaths's payload for mark round from.
func (db *DB) applySegPaths(r *rbuf, v Vantage, from int32) error {
	n := r.count()
	var path []int
	for i := uint64(0); i < n && r.err == nil; i++ {
		fam := topo.Family(r.byteVal())
		dst := r.uvarint()
		nSnaps := r.count()
		if r.err == nil && ((fam != topo.V4 && fam != topo.V6) || dst > math.MaxInt32 || nSnaps == 0) {
			r.fail("store: segment paths: bad key (%d, %d) with %d snapshots", fam, dst, nSnaps)
		}
		for k := uint64(0); k < nSnaps && r.err == nil; k++ {
			round := r.uvarint()
			plen := r.count()
			if r.err == nil && (round < uint64(from) || round > maxRound) {
				r.fail("store: segment paths: round %d outside [%d, %d]", round, from, maxRound)
			}
			path = path[:0]
			for j := uint64(0); j < plen && r.err == nil; j++ {
				as := r.uvarint()
				if as > math.MaxInt32 {
					r.fail("store: segment paths: AS index %d out of range", as)
				}
				path = append(path, int(as))
			}
			if r.err == nil {
				db.AddPath(v, fam, int(dst), int(round), path)
			}
		}
	}
	return r.err
}

// loadChain loads base's chain from a checkpoint directory: the base
// file, then every segment in order. A missing segment number or a
// segment that does not continue the state before it is a
// *CorruptSnapshotError.
func loadChain(base string) (*DB, error) {
	db, err := LoadBinary(base + chainBaseSuffix)
	if err != nil {
		return nil, err
	}
	dir, name := filepath.Split(base)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range entries {
		if n := e.Name(); strings.HasPrefix(n, name+".seg-") && strings.HasSuffix(n, segExt) {
			segs = append(segs, n)
		}
	}
	sort.Strings(segs)
	for i, seg := range segs {
		if want := segName(name, i+1); seg != want {
			return nil, corruptf(filepath.Join(dir, want), "chain", "segment %d of the chain is missing (found %s)", i+1, seg)
		}
		path := filepath.Join(dir, seg)
		data, release, err := mapSnapshotFile(path)
		if err != nil {
			return nil, err
		}
		err = applySegment(db, path, data)
		release()
		if err != nil {
			return nil, err
		}
	}
	return db, nil
}

// chain is what a CheckpointBackend knows of one snapshot name's
// newest saved checkpoint: the database it holds, the mark its save
// took, and the files that make it up.
type chain struct {
	db        *DB
	gen       uint64 // db's mark generation after the save
	mark      dbMark // what a segment written next continues
	dir       string // directory holding the files
	base      string // the base's file name in dir
	segs      []string
	baseBytes int64
	segBytes  int64
}

// saveChained saves db as name into the staging directory dir: as a
// segment continuing the last committed checkpoint when that is
// provably exact and its segments do not yet outweigh its base, and
// as a base otherwise.
func (b *CheckpointBackend) saveChained(dir, name string, db *DB) (*chain, error) {
	opt := BinaryOptions{Compress: true, Fingerprint: b.Fingerprint, Hook: b.Hook}
	if prev := b.chains[name]; prev != nil && prev.db == db && prev.segBytes < prev.baseBytes &&
		db.markGen.Load() == prev.gen && db.continues(prev.mark) {
		if c, err := b.saveSegment(dir, name, db, prev, opt); c != nil || err != nil {
			return c, err
		}
	}
	path := filepath.Join(dir, name+BinaryExt)
	if err := db.SaveBinary(path, opt); err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	c := &chain{db: db, dir: dir, base: name + BinaryExt, baseBytes: fi.Size()}
	c.mark, c.gen = db.mark()
	return c, nil
}

// saveSegment hard-links prev's files into dir and writes db's
// changes since prev as the next segment. A nil chain with a nil
// error means a link failed and the caller must write a base.
func (b *CheckpointBackend) saveSegment(dir, name string, db *DB, prev *chain, opt BinaryOptions) (*chain, error) {
	c := &chain{
		db: db, dir: dir, base: name + chainBaseSuffix,
		segs:      append(prev.segs[:len(prev.segs):len(prev.segs)], segName(name, len(prev.segs)+1)),
		baseBytes: prev.baseBytes, segBytes: prev.segBytes,
	}
	src := append([]string{prev.base}, prev.segs...)
	dst := append([]string{c.base}, prev.segs...)
	for i := range src {
		if err := os.Link(filepath.Join(prev.dir, src[i]), filepath.Join(dir, dst[i])); err != nil {
			for _, f := range dst[:i] {
				os.Remove(filepath.Join(dir, f))
			}
			return nil, nil
		}
	}
	path := filepath.Join(dir, c.segs[len(c.segs)-1])
	err := saveFrames(path, opt, func(f *os.File, opt BinaryOptions) error { return db.writeSegment(f, opt, prev.mark) })
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	c.segBytes += fi.Size()
	c.mark, c.gen = db.mark()
	return c, nil
}
