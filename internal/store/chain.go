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
// is exactly the section codec's rows from round M (shardwire.go):
//
//   - per site, its DNS runs clipped to rounds >= M. A site whose open
//     run just grew to the newest round is one id in a run-length
//     encoded id list instead (its state is the base's);
//   - per series, the samples at rounds >= M, behind the distinct
//     dates they carry;
//   - per path key, the snapshots at rounds >= M;
//   - the site rows whose dirty bit is set, plus every overflow row.
//
// An append below M (a new site's first DNS row, a MergeShard of old
// rounds) makes the next checkpoint a base. A segment file is the
// snapshot container (binary.go) with its own magic and format
// version 3: a state section recording the mark it continues (per
// vantage: mark round, DNS row, sample row and path snapshot counts;
// the site row count), then sites, and per vantage dns (the round it
// runs to, the grown id runs, then the shared DNS list), samples and
// paths. Applying a segment to a database in any other state fails as
// a *CorruptSnapshotError, and so does a segment an earlier build
// wrote in version 1 or 2.

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"v6web/internal/alexa"
)

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
	sampleRows int
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
	if err := fw.encode(segState, "", from.appendState); err != nil {
		return err
	}
	if err := fw.encode(ShardSites, "", db.appendSegSites); err != nil {
		return err
	}
	tables := db.tables()
	for _, v := range db.Vantages() {
		vm, now := from.vantage(v), tables[v].state(v, false)
		if err := fw.encode(ShardDNS, v, func(w *wbuf) int { return db.appendSegDNS(w, v, vm.round, now.round) }); err != nil {
			return err
		}
		if err := fw.encode(ShardSamples, v, func(w *wbuf) int { return db.appendSamples(w, v, 0, snapAllSites, vm.round) }); err != nil {
			return err
		}
		if err := fw.encode(snapPaths, v, func(w *wbuf) int { return db.appendPaths(w, v, vm.round) }); err != nil {
			return err
		}
	}
	return fw.finish(segmentFile, db.res)
}

// appendState encodes the mark: site rows, then per vantage (sorted)
// its name, mark round and counts.
func (m *dbMark) appendState(w *wbuf) int {
	w.uvarint(uint64(m.sites))
	w.uvarint(uint64(len(m.vantages)))
	for _, vm := range m.vantages {
		w.uvarint(uint64(len(vm.v)))
		w.bytes([]byte(vm.v))
		for _, x := range [...]int{int(vm.round), vm.dnsRows, vm.sampleRows, vm.paths} {
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
		var x [4]uint64
		for k := range x {
			x[k] = r.uvarint()
		}
		if x[0] > maxRound { // one past the newest round: maxRound is a mark
			r.fail("store: segment state: mark round %d out of range", x[0])
			break
		}
		for _, c := range x[1:] {
			if c > maxMarkCount {
				r.fail("store: segment state: count %d out of range", c)
			}
		}
		vm.round = int32(x[0])
		vm.dnsRows, vm.sampleRows, vm.paths = int(x[1]), int(x[2]), int(x[3])
		m.vantages = append(m.vantages, vm)
	}
	return m
}

// appendSegSites encodes the dirty dense rows and every overflow row
// in the snapshot sites format (ascending ids, decoded by applySites).
// The pass holds every site stripe lock, taken in ascending order
// (lockSites), for the whole section.
func (db *DB) appendSegSites(w *wbuf) int {
	db.lockSites()
	defer db.unlockSites()
	var ids []alexa.SiteID
	for i := range db.sites {
		sh := &db.sites[i]
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
	}
	slices.Sort(ids)
	w.uvarint(uint64(len(ids)))
	prev := alexa.SiteID(-1)
	for _, id := range ids {
		sh := &db.sites[uint64(id)&(shards-1)]
		var row SiteRow
		derived := false
		if table, slot := db.res.locate(id); table >= 0 {
			row, derived = sh.storedRow(sh.cols(table), slot, id)
		} else {
			row = sh.over[id]
		}
		w.siteRow(prev, row, derived)
		prev = id
	}
	return len(ids)
}

// appendSegDNS encodes vantage v's DNS changes since mark round from,
// up to round to (exclusive): to, the id runs (start, length) of the
// sites whose open run grew from before from to exactly to, then
// appendDNS's list of every other site with history at rounds >= from.
func (db *DB) appendSegDNS(w *wbuf, v Vantage, from, to int32) int {
	var grown idRuns
	var list wbuf
	n := db.appendDNS(&list, v, 0, snapAllSites, from, to, &grown)
	grown.flush()
	w.uvarint(uint64(to))
	w.uvarint(uint64(grown.n))
	w.bytes(grown.w.b)
	w.bytes(list.b)
	return grown.n + n
}

// applySegment decodes one segment file's bytes onto db, which must be
// in the state the segment continues. Every failure is a
// *CorruptSnapshotError; decoding allocates O(len(data)) plus at most
// db's own reservation again.
func applySegment(db *DB, path string, data []byte) error {
	h, secs, _, err := parseFrames(path, data, segmentFile)
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
		case ShardDNS:
			err = db.applySegDNS(r, s.vantage, vm.round)
		default:
			err = db.decodeSection(r, s.section, s.vantage, 0, snapAllSites, vm.round)
		}
		if err = r.done(err); err != nil {
			return corrupt(path, sectionName(s.section, s.vantage), err)
		}
	}
	return nil
}

// applySegDNS decodes appendSegDNS's payload for mark round from: the
// grown id runs, then the site list (landDNS), both under every DNS
// stripe lock of the vantage, taken in ascending order, once for the
// whole section.
func (db *DB) applySegDNS(r *rbuf, v Vantage, from int32) error {
	t := db.table(v)
	to64 := r.uvarint()
	if r.err == nil && (to64 > maxRound || int32(to64) < from) {
		r.fail("store: segment dns: round %d before the mark %d or out of range", to64, from)
	}
	to := int32(to64)
	t.lockDNS()
	defer t.unlockDNS()
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
			t.growRun(r, db.res, id, from, to)
		}
	}
	if r.err != nil {
		return r.err
	}
	return t.landDNS(r, db.res, v, 0, snapAllSites, from)
}

// growRun extends site id's open run, which must end at mark round
// from, to round to, as addRun of the run's state at [from, to) would,
// looking the site's history slot up once. Caller holds every DNS
// stripe lock of t (lockDNS).
func (t *vantageTable) growRun(r *rbuf, res reservation, id alexa.SiteID, from, to int32) {
	sh := &t.dns[uint64(id)&(shards-1)]
	h := sh.hist(res, id, false)
	if h == nil || h.run[0].count == 0 {
		r.fail("store: segment dns: site %d has no history to extend", id)
		return
	}
	var spill []dnsRun
	if h.run[1].state&dnsSpilled != 0 {
		spill = sh.spill[id]
	}
	last := h.newest(spill)
	if end := last.start + last.count; end != from {
		r.fail("store: segment dns: site %d history ends at round %d, not the mark %d", id, end, from)
		return
	}
	last.count += to - from
	watermark(&sh.lo, &sh.hi, from, to-1)
	sh.rows += int(to - from)
}

// loadChain loads base's chain from a checkpoint directory: the base
// file, then every segment in order. A missing segment number or a
// segment that does not continue the state before it is a
// *CorruptSnapshotError.
func loadChain(base string) (*DB, error) {
	db, err := loadBinary(base + chainBaseSuffix)
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

// chain is what a CheckpointBackend knows of its newest saved
// checkpoint: the database it holds, the mark its save took, and the
// files that make it up.
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

// saveChained saves db as main into the staging directory dir: as a
// segment continuing the last committed checkpoint when that is
// provably exact and its segments do not yet outweigh its base, and
// as a base otherwise.
func (b *CheckpointBackend) saveChained(dir string, db *DB) (*chain, error) {
	const name = SnapMain
	opt := BinaryOptions{Compress: true, Fingerprint: b.Fingerprint, Hook: b.Hook}
	if prev := b.last; prev != nil && prev.db == db && prev.segBytes < prev.baseBytes &&
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
