package store

// Section codec: the one binary encoding of the database's tables.
// Every binary form the database leaves the process in is built from
// these sections: a whole snapshot (binary.go), the frames a shard
// worker hands a coordinator, and a checkpoint segment (chain.go).
// Each table has one encoder and one decoder for "the rows at rounds
// >= from of the sites in an id range": a snapshot and a shard frame
// are the rows from round 0, a segment the rows from its mark round.
// The encoding is the in-memory columnar layout — delta-encoded DNS
// runs, packed samples, interned site rows — so a section costs
// O(state changes), not O(sites × rounds), and decoding re-lands rows
// in the dense tables without re-deriving any encoding: a site row
// whose host is the canonical one lands in its slot without the name
// ever being formatted, and a DNS history's runs extend its slot,
// looked up once. An encoder walks only its id range (walkRuns,
// forEachStoredSite). Every pass takes a table stripe's lock once, not
// once per row, and one that holds several takes them in ascending
// order.
//
// All sections share the conventions: site ids are ascending and
// varint-delta encoded against the range base, counts and small ints
// are uvarints, float64s travel as fixed 8-byte IEEE bits. A decoder
// lands rows only where the database holds nothing at a round >=
// from: at round 0 that is an empty slot, which is how MergeShard
// refuses double-merged or mis-split shards, and for a segment it
// holds because the database is at the segment's mark. MergeShard
// also asserts that ranges never overlap per (section, vantage).

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// Shard section identifiers.
const (
	ShardSites   byte = 1
	ShardDNS     byte = 2
	ShardSamples byte = 3
)

// maxRound bounds round numbers and run lengths: far above any real
// campaign, small enough that a corrupt payload cannot overflow the
// int32 round arithmetic the tables use. The writers refuse a round at
// or past it (errRound) and the section decoders refuse the same
// rounds, so whatever the writers store a snapshot carries, and what a
// snapshot carries the writers accept. A mark round is one past the
// newest stored round, so it may equal maxRound.
const maxRound = 1 << 30

// mergeKey / mergeRange track what MergeShard has already landed.
type mergeKey struct {
	section byte
	v       Vantage
}

type mergeRange struct {
	lo, hi alexa.SiteID
}

// wbuf is a tiny append-only encoder over a byte slice. It doubles the
// slice when full: a section payload grows to megabytes, where
// append's own policy, a quarter more at a time, would allocate
// several times the payload on the way.
type wbuf struct{ b []byte }

// room makes space for n more bytes.
func (w *wbuf) room(n int) {
	if cap(w.b)-len(w.b) < n {
		w.b = slices.Grow(w.b, max(n, cap(w.b)))
	}
}

// uvarint appends x as a uvarint. Most of a section's integers (id
// deltas, counts, run lengths) fit one byte, which the fast path
// appends as it is.
func (w *wbuf) uvarint(x uint64) {
	if x >= 0x80 || len(w.b) == cap(w.b) {
		w.uvarintSlow(x)
		return
	}
	w.b = append(w.b, byte(x))
}

func (w *wbuf) uvarintSlow(x uint64) {
	w.room(binary.MaxVarintLen64)
	w.b = binary.AppendUvarint(w.b, x)
}

func (w *wbuf) byteVal(x byte) {
	w.room(1)
	w.b = append(w.b, x)
}

func (w *wbuf) u64(x uint64) {
	w.room(8)
	w.b = binary.LittleEndian.AppendUint64(w.b, x)
}

func (w *wbuf) bytes(s []byte) {
	w.room(len(s))
	w.b = append(w.b, s...)
}

// countSlot reserves room for the uvarint count of the rows appended
// after it and returns where it goes; fillCount writes the count there
// and closes the gap it leaves, so the rows need no buffer of their
// own.
func (w *wbuf) countSlot() int {
	slot := len(w.b)
	w.room(binary.MaxVarintLen64)
	w.b = w.b[:slot+binary.MaxVarintLen64]
	return slot
}

func (w *wbuf) fillCount(slot, n int) {
	k := binary.PutUvarint(w.b[slot:], uint64(n))
	w.b = w.b[:slot+k+copy(w.b[slot+k:], w.b[slot+binary.MaxVarintLen64:])]
}

// rbuf is the matching decoder. Errors latch, and a latched error
// empties the buffer, so every read after it fails too.
type rbuf struct {
	b   []byte
	err error
}

func (r *rbuf) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

// uvarint reads a uvarint; a one-byte one, the common case, on the
// fast path.
func (r *rbuf) uvarint() uint64 {
	if b := r.b; len(b) > 0 && b[0] < 0x80 {
		r.b = b[1:]
		return uint64(b[0])
	}
	return r.uvarintSlow()
}

func (r *rbuf) uvarintSlow() uint64 {
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.latch(errTruncVarint)
		return 0
	}
	r.b = r.b[n:]
	return x
}

func (r *rbuf) byteVal() byte {
	if b := r.b; len(b) > 0 {
		r.b = b[1:]
		return b[0]
	}
	r.latch(errTruncByte)
	return 0
}

// The errors of a read past a payload's end.
var (
	errTruncVarint = errors.New("store: shard payload: truncated varint")
	errTruncByte   = errors.New("store: shard payload: truncated byte")
	errTruncU32    = errors.New("store: shard payload: truncated u32")
	errTruncU64    = errors.New("store: shard payload: truncated u64")
)

// latch latches err unless an error is latched already.
func (r *rbuf) latch(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *rbuf) u64() uint64 {
	if len(r.b) < 8 {
		r.latch(errTruncU64)
		return 0
	}
	x := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return x
}

// count reads an element count and sanity-checks it against the bytes
// remaining (every element encodes to at least one byte), so corrupt
// payloads fail instead of looping billions of times.
func (r *rbuf) count() uint64 {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.b)) {
		r.fail("store: shard payload: count %d exceeds remaining %d bytes", n, len(r.b))
		return 0
	}
	return n
}

// done returns a whole payload's decode error: err, else the latched
// read error, else the bytes left unread.
func (r *rbuf) done(err error) error {
	if err == nil {
		err = r.err
	}
	if err == nil && len(r.b) != 0 {
		err = fmt.Errorf("store: shard payload: %d trailing bytes", len(r.b))
	}
	return err
}

// shardRange validates that [lo, hi) is non-empty and lies inside one
// reserved dense range.
func (db *DB) shardRange(lo, hi alexa.SiteID) error {
	if lo >= hi {
		return fmt.Errorf("store: shard range [%d,%d) empty or inverted", lo, hi)
	}
	tLo, _ := db.res.locate(lo)
	tHi, _ := db.res.locate(hi - 1)
	if tLo < 0 || tLo != tHi {
		return fmt.Errorf("store: shard range [%d,%d) outside the reserved dense ranges (main %d, ext [%d,%d))",
			lo, hi, db.res.main, db.res.extBase, db.res.extBase+alexa.SiteID(db.res.ext))
	}
	return nil
}

// AppendShardSection encodes one section of the database restricted to
// the id range [lo, hi) onto buf, returning the extended buffer and
// how many entries (site rows, DNS histories, sample series) it holds —
// zero means the range contributes nothing and the frame can be
// skipped. The vantage is ignored for ShardSites (site rows are
// vantage-independent). The range must lie inside one reserved dense
// range; callers chunk larger spans.
func (db *DB) AppendShardSection(buf []byte, section byte, v Vantage, lo, hi alexa.SiteID) ([]byte, int, error) {
	if err := db.shardRange(lo, hi); err != nil {
		return buf, 0, err
	}
	w := &wbuf{b: buf}
	var n int
	switch section {
	case ShardSites:
		n = db.appendShardSites(w, lo, hi)
	case ShardDNS:
		n = db.appendDNS(w, v, lo, hi, 0, 0, nil)
	case ShardSamples:
		n = db.appendSamples(w, v, lo, hi, 0, 0)
	default:
		return buf, 0, fmt.Errorf("store: unknown shard section %d", section)
	}
	return w.b, n, nil
}

// appendShardSites encodes the site rows in [lo, hi): count, then per
// present site ascending (the walk of forEachStoredSite), in the
// snapshot sites format (siteRow): id delta (against lo-1, so strictly
// positive), first rank, origin ASes biased by one (-1 is the unknown
// marker), and the host — length zero meaning the canonical
// alexa.HostName derivation, which is the interned common case, costs
// one byte and is encoded straight from the columns. A whole snapshot
// is the range [0, snapAllSites).
func (db *DB) appendShardSites(w *wbuf, lo, hi alexa.SiteID) int {
	slot := w.countSlot()
	n := 0
	prev := lo - 1
	db.forEachStoredSite(lo, hi, func(r SiteRow, derived bool) {
		w.siteRow(prev, r, derived)
		prev = r.Site
		n++
	})
	w.fillCount(slot, n)
	return n
}

// idRuns run-length encodes ascending site ids as (start, length)
// pairs.
type idRuns struct {
	w          wbuf
	n          int
	start, end alexa.SiteID
}

func (g *idRuns) add(id alexa.SiteID) {
	if id != g.end {
		g.flush()
		g.start = id
	}
	g.end = id + 1
}

func (g *idRuns) flush() {
	if g.end > g.start {
		g.w.uvarint(uint64(g.start))
		g.w.uvarint(uint64(g.end - g.start))
		g.n++
	}
	g.start = g.end
}

// appendDNS encodes vantage v's DNS history at rounds >= from for the
// sites in [lo, hi): site count, then per site whose history reaches
// from, ascending: id delta (against lo-1), run count, runs clipped to
// from as (gap from the previous run's end — the first's from from —,
// length, state byte), and an out-of-order row count, which the format
// keeps and is always 0 (a history only ever extends). It is a direct
// dump of the delta encoding, O(state changes). A site whose newest
// run began before from and ends at round to goes to grown instead of
// the list; at from 0 none can. The walk (walkRuns) visits only
// [lo, hi).
func (db *DB) appendDNS(w *wbuf, v Vantage, lo, hi alexa.SiteID, from, to int32, grown *idRuns) int {
	slot := w.countSlot()
	n := 0
	db.lockedDNSView(v, func(view *dnsView) {
		prev := lo - 1
		view.walkRuns(lo, hi, func(site alexa.SiteID, runs []dnsRun) {
			last := runs[len(runs)-1]
			if last.start+last.count <= from {
				return
			}
			if last.start < from && last.start+last.count == to {
				grown.add(site)
				return
			}
			k := len(runs)
			for k > 0 && runs[k-1].start+runs[k-1].count > from {
				k--
			}
			w.uvarint(uint64(site - prev))
			prev = site
			w.uvarint(uint64(len(runs) - k))
			end := from
			for _, run := range runs[k:] {
				start := max(run.start, from)
				w.uvarint(uint64(start - end))
				w.uvarint(uint64(run.start + run.count - start))
				w.byteVal(run.state & dnsStateMask)
				end = run.start + run.count
			}
			w.uvarint(0) // out-of-order rows
			n++
		})
	})
	w.fillCount(slot, n)
	return n
}

// appendSamples encodes vantage v's samples at rounds >= from for the
// sites in [lo, hi): the date dictionary past its first datesFrom
// entries (count + fixed 8-byte unix nanos), series count, then per
// (site, family) series with samples at rounds >= from, in ascending
// (site, family) order: id delta against the previous site (zero when
// only the family advances; the first against lo), family byte, and
// the series' trailing samples at rounds >= from (see samples). The
// series come from each stripe's series owners, so a section costs
// O(sampled series), not O(reserved ids).
func (db *DB) appendSamples(w *wbuf, v Vantage, lo, hi alexa.SiteID, from int32, datesFrom int) int {
	t := db.lookup(v)
	if t == nil {
		return 0
	}
	type entry struct {
		key    siteFamKey
		series []packedSample // from its first sample at a round >= from
	}
	var list []entry
	for i := range t.samples {
		sh := &t.samples[i]
		sh.mu.Lock()
		for idx, o := range sh.owner {
			if o.site < lo || o.site >= hi {
				continue
			}
			series := sh.series[idx]
			k := len(series)
			for k > 0 && series[k-1].round >= from {
				k--
			}
			if k < len(series) {
				list = append(list, entry{o, series[k:]})
			}
		}
		sh.mu.Unlock()
	}
	slices.SortFunc(list, func(a, b entry) int {
		if c := cmp.Compare(a.key.site, b.key.site); c != 0 {
			return c
		}
		return cmp.Compare(a.key.fam, b.key.fam)
	})
	dates := t.dateTable()[datesFrom:]
	w.uvarint(uint64(len(dates)))
	for _, d := range dates {
		w.u64(uint64(d.UnixNano()))
	}
	w.uvarint(uint64(len(list)))
	prev := lo
	for _, e := range list {
		w.uvarint(uint64(e.key.site - prev))
		prev = e.key.site
		w.byteVal(byte(e.key.fam))
		w.samples(e.series)
	}
	return len(list)
}

// samples encodes a packed series: its length, then per sample the
// round, date index, page bytes and download/CI word as uvarints and
// the speed as raw float bits.
func (w *wbuf) samples(packed []packedSample) {
	w.uvarint(uint64(len(packed)))
	for _, p := range packed {
		w.uvarint(uint64(p.round))
		w.uvarint(uint64(p.dateIdx))
		w.uvarint(uint64(p.page))
		w.uvarint(uint64(p.dlCI))
		w.u64(math.Float64bits(p.speed))
	}
}

// appendPaths encodes vantage v's path table at rounds >= from: per
// (family, dst) key with snapshots at rounds >= from, keys ascending,
// the family byte, the destination and those snapshots (see
// pathSnaps).
func (db *DB) appendPaths(w *wbuf, v Vantage, from int32) int {
	t := db.lookup(v)
	if t == nil {
		w.uvarint(0)
		return 0
	}
	type entry struct {
		key   famDstKey
		snaps []PathSnapshot // from the first at a round >= from
	}
	t.pathMu.Lock()
	defer t.pathMu.Unlock()
	var keys []entry
	for k, snaps := range t.paths {
		j := len(snaps)
		for j > 0 && snaps[j-1].Round >= int(from) {
			j--
		}
		if j < len(snaps) {
			keys = append(keys, entry{k, snaps[j:]})
		}
	}
	slices.SortFunc(keys, func(a, b entry) int {
		if c := cmp.Compare(a.key.fam, b.key.fam); c != 0 {
			return c
		}
		return cmp.Compare(a.key.dst, b.key.dst)
	})
	w.uvarint(uint64(len(keys)))
	for _, e := range keys {
		w.byteVal(byte(e.key.fam))
		w.uvarint(uint64(e.key.dst))
		w.pathSnaps(e.snaps)
	}
	return len(keys)
}

// pathSnaps encodes a snapshot list: its length, then per snapshot
// the round, path length and AS indices.
func (w *wbuf) pathSnaps(snaps []PathSnapshot) {
	w.uvarint(uint64(len(snaps)))
	for _, snap := range snaps {
		w.uvarint(uint64(snap.Round))
		w.uvarint(uint64(len(snap.Path)))
		for _, as := range snap.Path {
			w.uvarint(uint64(as))
		}
	}
}

// MergeShard decodes one section payload produced by
// AppendShardSection for the id range [lo, hi) and lands the rows in
// this database's dense tables. It asserts that the range lies inside
// the reservation, that no earlier MergeShard covered an overlapping
// range for the same (section, vantage), and that decoded DNS
// histories and sample series land on empty slots — so re-sent,
// double-split, or mis-ranged shard data fails instead of corrupting
// the merge. Rows land exactly as the worker's in-process inserts
// would have, so a fully merged database serializes byte-identically
// to the single-process campaign.
func (db *DB) MergeShard(lo, hi alexa.SiteID, section byte, v Vantage, payload []byte) error {
	if err := db.shardRange(lo, hi); err != nil {
		return err
	}
	if section != ShardSites && section != ShardDNS && section != ShardSamples {
		return fmt.Errorf("store: unknown shard section %d", section)
	}
	if err := db.claimShardRange(section, v, lo, hi); err != nil {
		return err
	}
	r := &rbuf{b: payload}
	return r.done(db.decodeSection(r, section, v, lo, hi, 0, 0))
}

// claimShardRange records [lo, hi) as merged for (section, v),
// rejecting overlap with any earlier claim. Adjacent claims coalesce,
// so the list stays short across shards. Site rows are
// vantage-independent and claimed under whatever label the caller
// passes (the shard coordinator passes none); the per-vantage
// DNS/sample claims are the data-integrity check.
func (db *DB) claimShardRange(section byte, v Vantage, lo, hi alexa.SiteID) error {
	db.mergeMu.Lock()
	defer db.mergeMu.Unlock()
	if db.merged == nil {
		db.merged = make(map[mergeKey][]mergeRange)
	}
	k := mergeKey{section, v}
	rs := db.merged[k]
	for i := range rs {
		if lo < rs[i].hi && rs[i].lo < hi {
			return fmt.Errorf("store: MergeShard overlap: section %d vantage %q range [%d,%d) overlaps already-merged [%d,%d)",
				section, v, lo, hi, rs[i].lo, rs[i].hi)
		}
	}
	for i := range rs {
		if rs[i].hi == lo {
			rs[i].hi = hi
			return nil
		}
		if rs[i].lo == hi {
			rs[i].lo = lo
			return nil
		}
	}
	db.merged[k] = append(rs, mergeRange{lo, hi})
	return nil
}

// decodeSection lands one section payload of vantage v: the rows of
// the sites in [lo, hi) at rounds >= from, with the vantage's first
// datesFrom dates already held (see applySamples). Site rows are
// vantage-independent, and paths cover every site.
func (db *DB) decodeSection(r *rbuf, section byte, v Vantage, lo, hi alexa.SiteID, from int32, datesFrom int) error {
	switch section {
	case ShardSites:
		return db.applySites(r, lo, hi)
	case ShardDNS:
		return db.applyDNS(r, v, lo, hi, from)
	case ShardSamples:
		return db.applySamples(r, v, lo, hi, from, datesFrom)
	case snapPaths:
		return db.applyPaths(r, v, from)
	}
	return fmt.Errorf("unknown section id %d", section)
}

// applySites lands a sites section for [lo, hi) (appendShardSites or
// appendSegSites) straight in the site columns, leaving each row as
// PutSite would: present, dirty, and its host interned. A host the
// section derives (length zero) is never formatted: the row lands in
// its dense slot as derived. An explicit host is compared with the
// canonical name and kept only where it differs, so one equal to it
// lands derived too, and an overflow id's row keeps its name. The pass
// holds every site stripe lock, taken in ascending order, for the
// whole section.
func (db *DB) applySites(r *rbuf, lo, hi alexa.SiteID) error {
	n := r.count()
	res := db.res
	db.lockSites()
	defer db.unlockSites()
	prev := lo - 1
	for i := uint64(0); i < n && r.err == nil; i++ {
		delta := r.uvarint()
		if delta == 0 {
			r.fail("store: shard sites: zero id delta")
			break
		}
		id := prev + alexa.SiteID(delta)
		if id < lo || id >= hi {
			r.fail("store: shard sites: id %d outside range [%d,%d)", id, lo, hi)
			break
		}
		prev = id
		firstRank := r.uvarint()
		v4 := r.uvarint()
		v6 := r.uvarint()
		if r.err == nil && (firstRank > math.MaxInt32 || v4 > math.MaxInt32 || v6 > math.MaxInt32) {
			r.fail("store: shard sites: site %d has out-of-range fields", id)
			break
		}
		hostLen := r.count() // at most the bytes left
		if r.err != nil {
			break
		}
		host := r.b[:hostLen]
		r.b = r.b[hostLen:]
		row := SiteRow{Site: id, FirstRank: int(firstRank), V4AS: int(v4) - 1, V6AS: int(v6) - 1}
		sh := &db.sites[uint64(id)&(shards-1)]
		if table, slot := res.locate(id); table >= 0 {
			sh.setDense(sh.cols(table), slot, row)
			derived := hostLen == 0 || string(host) == alexa.HostName(id)
			if !derived {
				row.Host = string(host)
			}
			sh.keepHost(id, row.Host, derived)
			continue
		}
		if row.Host = string(host); hostLen == 0 {
			row.Host = alexa.HostName(id)
		}
		if sh.over == nil {
			sh.over = make(map[alexa.SiteID]SiteRow)
		}
		sh.over[id] = row
	}
	return r.err
}

// applyDNS decodes appendDNS's site list for [lo, hi) and rounds >=
// from under every DNS stripe lock of the vantage, taken in ascending
// order, once for the whole section (see landDNS).
func (db *DB) applyDNS(r *rbuf, v Vantage, lo, hi alexa.SiteID, from int32) error {
	t := db.table(v)
	t.lockDNS()
	defer t.unlockDNS()
	return t.landDNS(r, db.res, v, lo, hi, from)
}

// landDNS decodes appendDNS's site list for [lo, hi) and rounds >=
// from into t. Each site's history slot is looked up once; it must
// hold nothing at a round >= from, and the site's runs extend it as
// addRun would, the stripe's row count and watermarks counted once per
// site. Caller holds every DNS stripe lock of t (lockDNS).
func (t *vantageTable) landDNS(r *rbuf, res reservation, v Vantage, lo, hi alexa.SiteID, from int32) error {
	n := r.count()
	prev := lo - 1
	for i := uint64(0); i < n && r.err == nil; i++ {
		delta := r.uvarint()
		nRuns := r.count()
		if r.err != nil {
			break
		}
		site := prev + alexa.SiteID(delta)
		if delta == 0 || site < lo || site >= hi || nRuns == 0 {
			r.fail("store: dns: bad site %d (delta %d, range [%d,%d)) with %d runs", site, delta, lo, hi, nRuns)
			break
		}
		prev = site
		sh := &t.dns[uint64(site)&(shards-1)]
		h := sh.hist(res, site, true)
		if end := sh.end(h, site); end > from {
			r.fail("store: dns: site %d vantage %q already has history at round %d, at or after round %d", site, v, end-1, from)
			break
		}
		end, first := uint64(from), uint64(0)
		rows := int32(0)
		for k := uint64(0); k < nRuns && r.err == nil; k++ {
			gap, cnt, state := r.uvarint(), r.uvarint(), r.byteVal()
			if r.err != nil {
				break
			}
			if cnt == 0 || gap > maxRound || cnt > maxRound || end+gap+cnt > maxRound {
				r.fail("store: dns: site %d has an empty run or rounds out of range", site)
				break
			}
			start := end + gap
			if _, ok := sh.growHist(h, site, int32(start), int32(cnt), state&dnsStateMask); !ok {
				r.fail("store: dns: site %d run at round %d precedes its history's end", site, start)
				break
			}
			if rows == 0 {
				first = start
			}
			end = start + cnt
			rows += int32(cnt)
		}
		if rows > 0 {
			watermark(&sh.lo, &sh.hi, int32(first), int32(end)-1)
			sh.rows += int(rows)
		}
		if nOoo := r.uvarint(); r.err == nil && nOoo != 0 {
			r.fail("store: dns: site %d has %d out-of-order rows; the count must be 0", site, nOoo)
		}
	}
	return r.err
}

// applySamples decodes appendSamples's payload for [lo, hi), rounds >=
// from and a date dictionary whose first datesFrom entries the vantage
// holds already. A section date the vantage holds among those is
// refused, as is one the section lists twice; the rest land through
// dateRef, shared with what the vantage holds past them. A sample's
// date index below datesFrom names a held date; one at or past it maps
// through the section's dates. A series must hold nothing at a round
// >= from, and every sample must be at one.
func (db *DB) applySamples(r *rbuf, v Vantage, lo, hi alexa.SiteID, from int32, datesFrom int) error {
	t := db.table(v)
	nDates := r.count()
	idxMap := make([]int32, 0, nDates)
	listed := make(map[int64]bool)
	for i := uint64(0); i < nDates && r.err == nil; i++ {
		nanos := int64(r.u64())
		if r.err != nil {
			break
		}
		d := time.Unix(0, nanos).UTC()
		idx := t.dateRef(d)
		if int(idx) < datesFrom || listed[nanos] {
			r.fail("store: samples: date %v already in the dictionary", d)
			break
		}
		listed[nanos] = true
		idxMap = append(idxMap, idx)
	}
	n := r.count()
	prev := lo
	for i := uint64(0); i < n && r.err == nil; i++ {
		site := prev + alexa.SiteID(r.uvarint())
		fam := topo.Family(r.byteVal())
		cnt := r.count()
		if r.err != nil {
			break
		}
		// A sample is four uvarints and a u64, at least 12 bytes, so
		// the series (allocated at cnt) must fit in what is left.
		if site < lo || site >= hi || (fam != topo.V4 && fam != topo.V6) || cnt == 0 || cnt > uint64(len(r.b))/12 {
			r.fail("store: samples: bad series (%d, %d) of %d samples in range [%d,%d)", site, fam, cnt, lo, hi)
			break
		}
		prev = site
		sh := &t.samples[uint64(site)&(shards-1)]
		sh.mu.Lock()
		if idx := sh.seriesIdx(db.res, site, fam); idx >= 0 {
			for _, p := range sh.series[idx] {
				if p.round >= from {
					sh.mu.Unlock()
					r.fail("store: samples: site %d family %d vantage %q already has a sample at round %d, at or after round %d", site, fam, v, p.round, from)
					return r.err
				}
			}
		}
		for k := uint64(0); k < cnt && r.err == nil; k++ {
			round, dateIdx, page, dlCI := r.uvarint(), r.uvarint(), r.uvarint(), r.uvarint()
			bits := r.u64()
			if r.err != nil {
				break
			}
			date := int32(dateIdx)
			if dateIdx >= uint64(datesFrom) {
				if j := dateIdx - uint64(datesFrom); j < uint64(len(idxMap)) {
					date = idxMap[j]
				} else {
					date = -1
				}
			}
			if round < uint64(from) || round >= maxRound || date < 0 || page > math.MaxInt32 || dlCI > math.MaxUint32 {
				r.fail("store: samples: site %d has out-of-range sample fields", site)
				break
			}
			sh.add(db.res, site, fam, packedSample{
				round: int32(round), dateIdx: date,
				page: int32(page), dlCI: uint32(dlCI), speed: math.Float64frombits(bits),
			}, int(cnt))
		}
		sh.mu.Unlock()
	}
	return r.err
}

// applyPaths replays appendPaths's payload for rounds >= from through
// AddPath. Saved snapshot lists are already change-collapsed, so the
// replay stores them exactly. Keys must ascend in the canonical order,
// or a corrupt payload could silently merge duplicate keys through the
// collapse rule, and a key must hold nothing at a round >= from.
func (db *DB) applyPaths(r *rbuf, v Vantage, from int32) error {
	t := db.table(v)
	n := r.count()
	var prev famDstKey
	var path []int
	for i := uint64(0); i < n && r.err == nil; i++ {
		fam := topo.Family(r.byteVal())
		dst := r.uvarint()
		nSnaps := r.count()
		if r.err != nil {
			break
		}
		if (fam != topo.V4 && fam != topo.V6) || dst > math.MaxInt32 || nSnaps == 0 {
			r.fail("store: paths: bad key (%d, %d) with %d snapshots", fam, dst, nSnaps)
			break
		}
		key := famDstKey{fam, int(dst)}
		if i > 0 && (fam < prev.fam || (fam == prev.fam && key.dst <= prev.dst)) {
			r.fail("store: paths: keys out of order at (%d,%d)", fam, dst)
			break
		}
		prev = key
		t.pathMu.Lock()
		for _, snap := range t.paths[key] {
			if snap.Round >= int(from) {
				r.fail("store: paths: key (%d,%d) vantage %q already has a snapshot at round %d, at or after round %d", fam, dst, v, snap.Round, from)
				break
			}
		}
		t.pathMu.Unlock()
		for k := uint64(0); k < nSnaps && r.err == nil; k++ {
			round := r.uvarint()
			plen := r.count()
			if r.err == nil && (round < uint64(from) || round >= maxRound) {
				r.fail("store: paths: round %d outside [%d, %d)", round, from, maxRound)
			}
			path = path[:0]
			for j := uint64(0); j < plen && r.err == nil; j++ {
				as := r.uvarint()
				if as > math.MaxInt32 {
					r.fail("store: paths: AS index %d out of range", as)
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
