package store

// Shard wire codec: the binary section format worker processes use to
// hand a site-range slice of their tables to a coordinator. The
// encoding is the in-memory columnar layout — delta-encoded DNS runs,
// packed samples, interned site rows — so a hand-off costs O(state
// changes), not O(sites × rounds), and decoding re-lands rows in the
// coordinator's dense tables without re-deriving any encoding.
//
// All sections share the conventions: site ids are ascending and
// varint-delta encoded against the range base, counts and small ints
// are uvarints, float64s travel as fixed 8-byte IEEE bits. A section
// covers one contiguous id range [lo, hi) that must lie inside one of
// the reservation's dense ranges; MergeShard asserts ranges never
// overlap per (section, vantage) and that decoded history lands on
// empty slots, so double-merged or mis-split shards fail loudly
// instead of silently corrupting the campaign.

import (
	"encoding/binary"
	"fmt"
	"math"
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

// maxRound bounds decoded round numbers and run lengths: far above
// any real campaign, small enough that a corrupt payload cannot
// overflow the int32 round arithmetic the tables use.
const maxRound = 1 << 30

// mergeKey / mergeRange track what MergeShard has already landed.
type mergeKey struct {
	section byte
	v       Vantage
}

type mergeRange struct {
	lo, hi alexa.SiteID
}

// wbuf is a tiny append-only encoder over a byte slice.
type wbuf struct{ b []byte }

func (w *wbuf) uvarint(x uint64) { w.b = binary.AppendUvarint(w.b, x) }
func (w *wbuf) byteVal(x byte)   { w.b = append(w.b, x) }
func (w *wbuf) u64(x uint64)     { w.b = binary.LittleEndian.AppendUint64(w.b, x) }
func (w *wbuf) bytes(s []byte)   { w.b = append(w.b, s...) }

// rbuf is the matching decoder; errors latch.
type rbuf struct {
	b   []byte
	err error
}

func (r *rbuf) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *rbuf) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("store: shard payload: truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return x
}

func (r *rbuf) byteVal() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("store: shard payload: truncated byte")
		return 0
	}
	x := r.b[0]
	r.b = r.b[1:]
	return x
}

func (r *rbuf) u64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail("store: shard payload: truncated u64")
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
	var err error
	switch section {
	case ShardSites:
		n = db.appendShardSites(w, lo, hi)
	case ShardDNS:
		n, err = db.appendShardDNS(w, v, lo, hi)
	case ShardSamples:
		n = db.appendShardSamples(w, v, lo, hi)
	default:
		return buf, 0, fmt.Errorf("store: unknown shard section %d", section)
	}
	if err != nil {
		return buf, 0, err
	}
	return w.b, n, nil
}

// appendShardSites encodes: count, then per present site ascending:
// id delta (against lo-1, so strictly positive), first rank, origin
// ASes biased by one (-1 is the unknown marker), and the host — length
// zero meaning the canonical alexa.HostName derivation, which is the
// interned common case and costs one byte.
func (db *DB) appendShardSites(w *wbuf, lo, hi alexa.SiteID) int {
	var rows wbuf
	n := 0
	prev := lo - 1
	for id := lo; id < hi; id++ {
		sh := db.siteShard(id)
		table, slot := db.res.locate(id)
		cols := &sh.main
		if table == 1 {
			cols = &sh.ext
		}
		sh.mu.Lock()
		if !cols.present[slot] {
			sh.mu.Unlock()
			continue
		}
		firstRank, v4, v6 := cols.firstRank[slot], cols.v4[slot], cols.v6[slot]
		host, hostOver := sh.hostOver[id]
		sh.mu.Unlock()
		rows.uvarint(uint64(id - prev))
		prev = id
		rows.uvarint(uint64(firstRank))
		rows.uvarint(uint64(v4 + 1))
		rows.uvarint(uint64(v6 + 1))
		if hostOver {
			rows.uvarint(uint64(len(host)))
			rows.bytes([]byte(host))
		} else {
			rows.uvarint(0)
		}
		n++
	}
	w.uvarint(uint64(n))
	w.bytes(rows.b)
	return n
}

// appendShardDNS encodes: site count, then per site with history
// ascending: id delta, run count, runs as (gap from previous run's
// end, length, state byte), and the site's out-of-order rows as
// (round, state byte) pairs. This is a direct dump of the delta
// encoding — O(state changes).
func (db *DB) appendShardDNS(w *wbuf, v Vantage, lo, hi alexa.SiteID) (int, error) {
	var rows wbuf
	n := 0
	var err error
	db.lockedDNSView(v, func(view *dnsView) {
		prev := lo - 1
		view.walkRuns(func(site alexa.SiteID, runs []dnsRun, ooo []DNSRow) {
			if site < lo || site >= hi || err != nil {
				return
			}
			rows.uvarint(uint64(site - prev))
			prev = site
			rows.uvarint(uint64(len(runs)))
			end := int32(0)
			for _, run := range runs {
				if run.start < end {
					err = fmt.Errorf("store: shard encode: site %d has out-of-order run at round %d", site, run.start)
					return
				}
				rows.uvarint(uint64(run.start - end))
				rows.uvarint(uint64(run.count))
				rows.byteVal(run.state & dnsStateMask)
				end = run.start + run.count
			}
			rows.uvarint(uint64(len(ooo)))
			for _, row := range ooo {
				rows.uvarint(uint64(row.Round))
				rows.byteVal(dnsState(row.HasA, row.HasAAAA, row.Identical))
			}
			n++
		})
	})
	if err != nil {
		return 0, err
	}
	w.uvarint(uint64(n))
	w.bytes(rows.b)
	return n, nil
}

// appendShardSamples encodes: the vantage's date dictionary (count +
// fixed 8-byte unix nanos), series count, then per (site, family)
// series in ascending (site, family) order: id delta against the
// previous site (zero when only the family advances), family byte,
// sample count, and the packed samples themselves (round, date index,
// page bytes, download/CI word as uvarints; speed as raw float bits).
func (db *DB) appendShardSamples(w *wbuf, v Vantage, lo, hi alexa.SiteID) int {
	t := db.lookup(v)
	if t == nil {
		return 0
	}
	dates := t.dateTable()
	var rows wbuf
	n := 0
	prev := lo
	for _, site := range db.sampledSites(v) {
		if site < lo || site >= hi {
			continue
		}
		sh := &t.samples[uint64(site)&(shards-1)]
		for _, fam := range famBoth {
			sh.mu.Lock()
			var packed []packedSample
			if idx := sh.seriesIdx(db.res, site, fam); idx >= 0 {
				packed = sh.series[idx]
			}
			if len(packed) == 0 {
				sh.mu.Unlock()
				continue
			}
			rows.uvarint(uint64(site - prev))
			prev = site
			rows.byteVal(byte(fam))
			rows.samples(packed)
			sh.mu.Unlock()
			n++
		}
	}
	w.uvarint(uint64(len(dates)))
	for _, d := range dates {
		w.u64(uint64(d.UnixNano()))
	}
	w.uvarint(uint64(n))
	w.bytes(rows.b)
	return n
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
	var err error
	switch section {
	case ShardSites:
		err = db.mergeShardSites(r, lo, hi)
	case ShardDNS:
		err = db.mergeShardDNS(r, v, lo, hi)
	case ShardSamples:
		err = db.mergeShardSamples(r, v, lo, hi)
	}
	if err == nil {
		err = r.err
	}
	if err == nil && len(r.b) != 0 {
		err = fmt.Errorf("store: shard payload: %d trailing bytes", len(r.b))
	}
	return err
}

// claimShardRange records [lo, hi) as merged for (section, v),
// rejecting overlap with any earlier claim. Adjacent claims coalesce
// so chunked sends keep the list short.
func (db *DB) claimShardRange(section byte, v Vantage, lo, hi alexa.SiteID) error {
	if section == ShardSites {
		// Site rows are vantage-independent; vantage-restricted shards
		// pass distinct labels so intentional re-coverage stays legal.
		// The per-vantage DNS/sample claims are the data-integrity check.
	}
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

func (db *DB) mergeShardSites(r *rbuf, lo, hi alexa.SiteID) error {
	n := r.count()
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
		hostLen := r.count()
		host := ""
		if hostLen > 0 {
			if uint64(len(r.b)) < hostLen {
				r.fail("store: shard sites: truncated host")
				break
			}
			host = string(r.b[:hostLen])
			r.b = r.b[hostLen:]
		} else {
			host = alexa.HostName(id)
		}
		db.PutSite(SiteRow{Site: id, Host: host, FirstRank: int(firstRank), V4AS: int(v4) - 1, V6AS: int(v6) - 1})
	}
	return r.err
}

func (db *DB) mergeShardDNS(r *rbuf, v Vantage, lo, hi alexa.SiteID) error {
	t := db.table(v)
	n := r.count()
	prev := lo - 1
	var oooRows []DNSRow
	var runsBuf []dnsRun
	for i := uint64(0); i < n && r.err == nil; i++ {
		delta := r.uvarint()
		if delta == 0 {
			r.fail("store: shard dns: zero id delta")
			break
		}
		site := prev + alexa.SiteID(delta)
		if site < lo || site >= hi {
			r.fail("store: shard dns: site %d outside range [%d,%d)", site, lo, hi)
			break
		}
		prev = site
		nRuns := r.count()
		runsBuf = runsBuf[:0]
		end := int32(0)
		total := 0
		for k := uint64(0); k < nRuns && r.err == nil; k++ {
			gap := r.uvarint()
			cnt := r.uvarint()
			state := r.byteVal()
			if r.err != nil {
				break
			}
			if cnt == 0 {
				r.fail("store: shard dns: site %d has an empty run", site)
				break
			}
			if gap > maxRound || cnt > maxRound || uint64(end)+gap+cnt > maxRound {
				r.fail("store: shard dns: site %d run rounds out of range", site)
				break
			}
			start := end + int32(gap)
			runsBuf = append(runsBuf, dnsRun{start: start, count: int32(cnt), state: state & dnsStateMask})
			end = start + int32(cnt)
			total += int(cnt)
		}
		if r.err != nil {
			break
		}
		if len(runsBuf) > 0 {
			sh := &t.dns[uint64(site)&(shards-1)]
			sh.mu.Lock()
			h := sh.hist(db.res, site, true)
			if h.run[0].count != 0 {
				sh.mu.Unlock()
				r.fail("store: MergeShard: site %d vantage %q already has DNS history", site, v)
				break
			}
			h.run[0] = runsBuf[0]
			if len(runsBuf) > 1 {
				h.run[1] = runsBuf[1]
			}
			if len(runsBuf) > 2 {
				h.run[1].state |= dnsSpilled
				if sh.spill == nil {
					sh.spill = make(map[alexa.SiteID][]dnsRun)
				}
				sh.spill[site] = append(sh.spill[site], runsBuf[2:]...)
			}
			sh.rows += total
			watermark(&sh.lo, &sh.hi, runsBuf[0].start, end-1)
			sh.mu.Unlock()
		}
		nOoo := r.count()
		firstOoo := len(oooRows)
		for k := uint64(0); k < nOoo && r.err == nil; k++ {
			round := r.uvarint()
			state := r.byteVal()
			if r.err != nil {
				break
			}
			if round > maxRound {
				r.fail("store: shard dns: site %d ooo round %d out of range", site, round)
				break
			}
			oooRows = append(oooRows, DNSRow{
				Site: site, Round: int(round),
				HasA: state&dnsHasA != 0, HasAAAA: state&dnsHasAAAA != 0, Identical: state&dnsIdentical != 0,
			})
		}
		t.watermarkRows(oooRows[firstOoo:])
	}
	if len(oooRows) > 0 && r.err == nil {
		t.oooMu.Lock()
		t.ooo = append(t.ooo, oooRows...)
		t.oooMu.Unlock()
	}
	return r.err
}

func (db *DB) mergeShardSamples(r *rbuf, v Vantage, lo, hi alexa.SiteID) error {
	t := db.table(v)
	nDates := r.count()
	idxMap := make([]int32, 0, nDates)
	for i := uint64(0); i < nDates && r.err == nil; i++ {
		nanos := int64(r.u64())
		if r.err != nil {
			break
		}
		idxMap = append(idxMap, t.dateRef(time.Unix(0, nanos).UTC()))
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
		if site < lo || site >= hi {
			r.fail("store: shard samples: site %d outside range [%d,%d)", site, lo, hi)
			break
		}
		if fam != topo.V4 && fam != topo.V6 {
			r.fail("store: shard samples: site %d has unknown family %d", site, fam)
			break
		}
		prev = site
		sh := &t.samples[uint64(site)&(shards-1)]
		sh.mu.Lock()
		if sh.seriesIdx(db.res, site, fam) >= 0 {
			sh.mu.Unlock()
			r.fail("store: MergeShard: site %d family %d vantage %q already has samples", site, fam, v)
			break
		}
		for k := uint64(0); k < cnt && r.err == nil; k++ {
			round := r.uvarint()
			dateIdx := r.uvarint()
			page := r.uvarint()
			dlCI := r.uvarint()
			bits := r.u64()
			if r.err != nil {
				break
			}
			if dateIdx >= uint64(len(idxMap)) {
				r.fail("store: shard samples: site %d has date index %d of %d", site, dateIdx, len(idxMap))
				break
			}
			if round > maxRound || page > math.MaxInt32 || dlCI > math.MaxUint32 {
				r.fail("store: shard samples: site %d has out-of-range sample fields", site)
				break
			}
			sh.add(db.res, site, fam, packedSample{
				round: int32(round), dateIdx: idxMap[dateIdx],
				page: int32(page), dlCI: uint32(dlCI), speed: math.Float64frombits(bits),
			})
		}
		sh.mu.Unlock()
	}
	return r.err
}
