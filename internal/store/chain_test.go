package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// chainRound appends round r to db in a monitor's shape, on top of
// binarySampleDB (rounds < 10): most sites extend their open run,
// site 1 flips state every round, site 7 skips rounds, site 8 stops
// after round 12, site 4 is written after the others, an extended and
// an overflow site keep measuring, samples (site 2's at a date the
// base already holds), path snapshots and site rows change, a vantage
// appears at round 13 and the reservation grows at round 15.
func chainRound(db *DB, r int) {
	date := time.Date(2011, 9, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, 7*r)
	vantages := []Vantage{"penn", "seattle"}
	if r >= 13 {
		vantages = append(vantages, "tokyo")
	}
	if r == 15 {
		db.Reserve(100, 1<<20, 32)
	}
	for _, v := range vantages {
		for id := alexa.SiteID(0); id < 40; id++ {
			switch {
			case id == 1:
				db.AddDNS(v, DNSRow{Site: 1, Round: r, HasA: true, HasAAAA: r%2 == 0})
			case id == 7 && r%3 != 0, id == 8 && r > 12, id == 4:
			default:
				db.AddDNS(v, DNSRow{Site: id, Round: r, HasA: true, HasAAAA: id%5 == 0, Identical: true})
			}
		}
		db.AddDNS(v, DNSRow{Site: 4, Round: r, HasA: true})
		db.AddDNS(v, DNSRow{Site: 1<<20 + 2, Round: r, HasAAAA: true})
		db.AddDNS(v, DNSRow{Site: 5_000_000, Round: r, HasA: true})
		db.AddSample(v, 0, topo.V4, Sample{Round: r, Date: date, PageBytes: 100 + r, Downloads: 3, MeanSpeed: 50 + float64(r), CIOK: true})
		db.AddSample(v, alexa.SiteID(10+r%20), topo.V6, Sample{Round: r, Date: date, PageBytes: 90, Downloads: 5, MeanSpeed: 0.5, CIOK: r%4 != 0})
		db.AddSample(v, 2, topo.V4, Sample{Round: r, Date: time.Date(2011, 6, 8, 0, 0, 0, 0, time.UTC), PageBytes: 70, Downloads: 3, MeanSpeed: 9, CIOK: true})
		db.AddPath(v, topo.V4, 9, r, []int{2, 5 + r%2, 9})
		db.AddPath(v, topo.V6, 100+r, r, []int{2, 100 + r})
	}
	db.PutSite(SiteRow{Site: alexa.SiteID(r % 40), Host: alexa.HostName(alexa.SiteID(r % 40)), FirstRank: r, V4AS: r, V6AS: -1})
	db.PutSite(SiteRow{Site: alexa.SiteID(40 + r), Host: "new.example", FirstRank: 40 + r, V4AS: 1, V6AS: 1})
}

// snapshotBytes is SaveBinary's output for db.
func snapshotBytes(t *testing.T, db *DB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db"+BinaryExt)
	if err := db.SaveBinary(path, BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// loadNewest loads the newest committed main snapshot under dir
// through a fresh backend, as a resuming process would.
func loadNewest(t *testing.T, dir string) (*DB, Meta) {
	t.Helper()
	b := NewCheckpointBackend(dir)
	meta, ok, err := b.LoadMeta()
	if err != nil || !ok {
		t.Fatalf("newest meta: ok=%v err=%v", ok, err)
	}
	db, err := b.Load()
	if err != nil {
		t.Fatalf("newest checkpoint does not load: %v", err)
	}
	return db, meta
}

// requireLoadsAs fails unless the newest checkpoint under dir
// serializes exactly as live.
func requireLoadsAs(t *testing.T, dir string, live *DB) {
	t.Helper()
	loaded, _ := loadNewest(t, dir)
	if !bytes.Equal(snapshotBytes(t, loaded), snapshotBytes(t, live)) {
		t.Fatalf("loaded checkpoint %v differs from the live database %v", loaded, live)
	}
}

// newestIsBase reports whether b's newest checkpoint holds main whole.
func newestIsBase(t *testing.T, b *CheckpointBackend) bool {
	t.Helper()
	dir, err := b.latest()
	if err != nil || dir == "" {
		t.Fatalf("no committed checkpoint: %v", err)
	}
	_, err = os.Stat(filepath.Join(dir, SnapMain+BinaryExt))
	return err == nil
}

// TestChainSegmentsEqualLiveDB checkpoints every round and every
// second round (so a segment can span a site's last observation) and
// requires each committed chain to load as the live database.
func TestChainSegmentsEqualLiveDB(t *testing.T) {
	for _, every := range []int{1, 2} {
		dir := t.TempDir()
		b := NewCheckpointBackend(dir)
		db := binarySampleDB()
		commits, segments := 0, 0
		for r := 10; r < 30; r++ {
			chainRound(db, r)
			if (r+1)%every != 0 {
				continue
			}
			if err := commit(b, db, r); err != nil {
				t.Fatal(err)
			}
			commits++
			if !newestIsBase(t, b) {
				segments++
			}
			requireLoadsAs(t, dir, db)
		}
		if 2*segments < commits {
			t.Fatalf("every %d: only %d of %d checkpoints were segments", every, segments, commits)
		}
	}
}

// TestChainOlderRoundForcesBase lands history below the mark round
// after a segment — the two ways a new site's first AddDNS and a
// MergeShard can — and requires the next checkpoint to be a base that
// still equals the live database.
func TestChainOlderRoundForcesBase(t *testing.T) {
	cases := map[string]func(t *testing.T, db *DB){
		"add-dns": func(t *testing.T, db *DB) {
			db.AddDNS("penn", DNSRow{Site: 45, Round: 3, HasA: true})
		},
		"merge-shard": func(t *testing.T, db *DB) {
			other := NewDB()
			other.Reserve(64, 1<<20, 32)
			other.AddDNS("penn", DNSRow{Site: 50, Round: 2, HasA: true})
			payload, n, err := other.AppendShardSection(nil, ShardDNS, "penn", 48, 64)
			if err != nil || n != 1 {
				t.Fatalf("shard section: n=%d err=%v", n, err)
			}
			if err := db.MergeShard(48, 64, ShardDNS, "penn", payload); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, land := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			b := NewCheckpointBackend(dir)
			db := binarySampleDB()
			for r := 10; r < 12; r++ {
				chainRound(db, r)
				if err := commit(b, db, r); err != nil {
					t.Fatal(err)
				}
			}
			if newestIsBase(t, b) {
				t.Fatal("the second checkpoint is not a segment")
			}
			land(t, db)
			chainRound(db, 12)
			if err := commit(b, db, 12); err != nil {
				t.Fatal(err)
			}
			if !newestIsBase(t, b) {
				t.Fatal("history below the mark round did not force a base")
			}
			requireLoadsAs(t, dir, db)
		})
	}
}

// TestChainSurvivesPruningAndFallsBack: the newest chain loads through
// its hard links once pruning has removed the base's own directory; a
// chain directory has no whole main.v6db, so Load, which knows only
// whole snapshots, reports ErrNoDatabase; and once the predecessor
// directory is removed, the next checkpoint is a base.
func TestChainSurvivesPruningAndFallsBack(t *testing.T) {
	dir := t.TempDir()
	b := NewCheckpointBackend(dir)
	db := binarySampleDB()
	for r := 10; r < 15; r++ {
		chainRound(db, r)
		if err := commit(b, db, r); err != nil {
			t.Fatal(err)
		}
	}
	names, err := b.committed()
	if err != nil || len(names) != 3 || names[0] != "ck-000002" {
		t.Fatalf("committed after pruning: %v err=%v", names, err)
	}
	if newestIsBase(t, b) {
		t.Fatal("newest checkpoint is not a chain")
	}
	requireLoadsAs(t, dir, db)

	ck := filepath.Join(b.root(), names[len(names)-1])
	if _, err := Load(filepath.Join(ck, SnapMain)); !errors.Is(err, ErrNoDatabase) {
		t.Fatalf("whole-snapshot load of a chain directory: %v, want ErrNoDatabase", err)
	}

	if err := os.RemoveAll(ck); err != nil {
		t.Fatal(err)
	}
	chainRound(db, 15)
	if err := commit(b, db, 15); err != nil {
		t.Fatal(err)
	}
	if !newestIsBase(t, b) {
		t.Fatal("a missing predecessor did not force a base")
	}
	requireLoadsAs(t, dir, db)
}

// TestChainMismatchIsCorrupt: a segment applied to a database in any
// state but the one it continues, a segment in the container version
// an earlier build wrote, a chain with a segment missing, and crafted
// segments that break the section codec's rules fail as a
// *CorruptSnapshotError blaming that part: a site entry whose
// out-of-order row count (always 0) is not, at a dense id or an
// overflow id; a listed site whose history already runs past the mark
// (it grew in the same section); path keys that repeat or descend; and
// a sample date the base already holds. The same crafted site entries
// with a zero count apply.
func TestChainMismatchIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	b := NewCheckpointBackend(dir)
	db := binarySampleDB()
	for r := 10; r < 13; r++ {
		chainRound(db, r)
		if err := commit(b, db, r); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := b.latest()
	if err != nil {
		t.Fatal(err)
	}
	seg2 := filepath.Join(ck, segName(SnapMain, 2))
	data, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	var ce *CorruptSnapshotError
	if err := applySegment(binarySampleDB(), seg2, data); !errors.As(err, &ce) || ce.Section != "state" {
		t.Fatalf("segment 2 on the wrong base: %v, want a state *CorruptSnapshotError", err)
	}
	v1 := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(v1[8:], 1)
	rehashBinHeader(v1)
	if err := applySegment(binarySampleDB(), seg2, v1); !errors.As(err, &ce) || ce.Section != "header" {
		t.Fatalf("a version-1 segment: %v, want a header *CorruptSnapshotError", err)
	}
	if err := os.Remove(seg2); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg2, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Load(); !errors.As(err, &ce) || ce.Section != "header" || ce.Path != seg2 {
		t.Fatalf("a chain holding a version-1 segment: %v, want a header *CorruptSnapshotError naming %s", err, seg2)
	}
	if err := os.Remove(filepath.Join(ck, segName(SnapMain, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Load(); !errors.As(err, &ce) {
		t.Fatalf("chain missing segment 1: %v, want *CorruptSnapshotError", err)
	}

	m := orderTestDB().state(false)
	from := m.vantage("penn").round
	// segment crafts a segment continuing orderTestDB with the given
	// penn sections.
	segment := func(sections map[byte][]byte) []byte {
		var st wbuf
		n := m.appendState(&st)
		path := filepath.Join(t.TempDir(), segName("crafted", 1))
		err := saveFrames(path, BinaryOptions{}, func(f *os.File, opt BinaryOptions) error {
			fw, err := newFrameWriter(f, opt)
			if err != nil {
				return err
			}
			if err := fw.section(segState, "", st.b, n); err != nil {
				return err
			}
			for _, id := range []byte{ShardDNS, ShardSamples, snapPaths} {
				if payload, ok := sections[id]; ok {
					if err := fw.section(id, "penn", payload, 1); err != nil {
						return err
					}
				}
			}
			return fw.finish(segmentFile, m.res)
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// dns is a segment dns section running to from+1 that grows the
	// sites in grown and lists site at round from+gap, its entry
	// closing with ooo out-of-order rows, each c's.
	dns := func(grown []alexa.SiteID, site alexa.SiteID, gap int, c orderCase, ooo int) []byte {
		var w wbuf
		w.uvarint(uint64(from + 1))
		w.uvarint(uint64(len(grown)))
		for _, id := range grown {
			w.uvarint(uint64(id))
			w.uvarint(1)
		}
		w.uvarint(1)
		w.uvarint(uint64(site + 1))
		w.uvarint(1)
		w.uvarint(uint64(gap))
		w.uvarint(1)
		w.byteVal(dnsHasA)
		w.uvarint(uint64(ooo))
		for k := 0; k < ooo; k++ {
			w.uvarint(uint64(c.row.Round))
			w.byteVal(dnsHasA)
		}
		return w.b
	}
	apply := func(what string, data []byte, section, msg string) {
		t.Helper()
		err := applySegment(orderTestDB(), "crafted"+segExt, data)
		var ce *CorruptSnapshotError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: %v, want a *CorruptSnapshotError", what, err)
		}
		if ce.Section != section || !strings.Contains(err.Error(), msg) {
			t.Errorf("%s: %v, want %s blamed for %q", what, err, section, msg)
		}
	}
	for _, c := range orderCases() {
		if err := applySegment(orderTestDB(), "crafted"+segExt, segment(map[byte][]byte{ShardDNS: dns(nil, c.row.Site, 0, c, 0)})); err != nil {
			t.Fatalf("%s: with a zero count: %v", c.name, err)
		}
		apply(c.name, segment(map[byte][]byte{ShardDNS: dns(nil, c.row.Site, 0, c, 1)}), "dns/penn", "out-of-order")
	}
	// Site 0's run ends at the mark: grown to from+1, it then holds
	// history past the mark, which a list entry at from+1 must not
	// extend.
	apply("grown then listed", segment(map[byte][]byte{ShardDNS: dns([]alexa.SiteID{0}, 0, 1, orderCases()[0], 0)}), "dns/penn", "site 0 vantage \"penn\" already has history")

	paths := func(keys ...famDstKey) []byte {
		var w wbuf
		w.uvarint(uint64(len(keys)))
		for i, k := range keys {
			w.byteVal(byte(k.fam))
			w.uvarint(uint64(k.dst))
			w.pathSnaps([]PathSnapshot{{Round: int(from) + i, Path: []int{2, k.dst}}})
		}
		return w.b
	}
	if err := applySegment(orderTestDB(), "crafted"+segExt, segment(map[byte][]byte{snapPaths: paths(famDstKey{topo.V4, 50}, famDstKey{topo.V6, 50})})); err != nil {
		t.Fatalf("ascending path keys: %v", err)
	}
	apply("repeated path key", segment(map[byte][]byte{snapPaths: paths(famDstKey{topo.V4, 50}, famDstKey{topo.V4, 50})}), "paths/penn", "keys out of order")
	apply("descending path keys", segment(map[byte][]byte{snapPaths: paths(famDstKey{topo.V6, 50}, famDstKey{topo.V4, 50})}), "paths/penn", "keys out of order")

	var held wbuf
	held.uvarint(1)
	held.u64(uint64(time.Date(2011, 6, 8, 0, 0, 0, 0, time.UTC).UnixNano()))
	held.uvarint(0)
	apply("a date the base holds", segment(map[byte][]byte{ShardSamples: held.b}), "samples/penn", "already in the dictionary")
}

// referenceSamples is the sample encoder as a walk of every reserved
// slot: per stripe and family the main slots, the ext slots and the
// overflow ids, each series' samples at rounds >= from, sorted by
// (site, family) and written with id deltas after the dates past
// datesFrom.
func (t *vantageTable) referenceSamples(w *wbuf, res reservation, from int32, datesFrom int) int {
	type entry struct {
		id     alexa.SiteID
		fam    topo.Family
		series []packedSample
	}
	var list []entry
	for i := range t.samples {
		sh := &t.samples[i]
		sh.mu.Lock()
		emit := func(id alexa.SiteID, fam topo.Family, idx int32) {
			if idx < 0 {
				return
			}
			series := sh.series[idx]
			k := len(series)
			for k > 0 && series[k-1].round >= from {
				k--
			}
			if k < len(series) {
				list = append(list, entry{id, fam, series[k:]})
			}
		}
		for f, fam := range famBoth {
			for slot, idx := range sh.main[f] {
				emit(alexa.SiteID(slot<<shardBits|i), fam, idx)
			}
			for slot, idx := range sh.ext[f] {
				emit(res.extBase+alexa.SiteID(slot<<shardBits|i), fam, idx)
			}
			for id, idx := range sh.over[f] {
				emit(id, fam, idx)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(list, func(a, b int) bool {
		if list[a].id != list[b].id {
			return list[a].id < list[b].id
		}
		return list[a].fam < list[b].fam
	})
	dates := t.dateTable()[datesFrom:]
	w.uvarint(uint64(len(dates)))
	for _, d := range dates {
		w.u64(uint64(d.UnixNano()))
	}
	w.uvarint(uint64(len(list)))
	prev := alexa.SiteID(0)
	for _, e := range list {
		w.uvarint(uint64(e.id - prev))
		prev = e.id
		w.byteVal(byte(e.fam))
		w.samples(e.series)
	}
	return len(list)
}

// TestSegSamplesMatchReferenceEncoder: the owner-driven sample encoder
// writes the bytes of a walk over every reserved slot, for databases
// with dense main and extended series, overflow series on both sides
// of each range, series a later Reserve migrates into the dense
// ranges, late samples below the newest round, and every round a
// segment may start from.
func TestSegSamplesMatchReferenceEncoder(t *testing.T) {
	const extBase = alexa.SiteID(1 << 20)
	var ids []alexa.SiteID
	for id := alexa.SiteID(0); id < 96; id++ {
		ids = append(ids, id) // [0, 48) dense at first, [48, 96) once Reserve grows
	}
	for id := extBase; id < extBase+48; id++ {
		ids = append(ids, id) // [0, 16) dense at first, then [0, 48)
	}
	ids = append(ids, 500, 777, extBase+900, 1<<30)
	for seed := int64(1); seed <= 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		db.Reserve(48, extBase, 16)
		for r := 0; r < 16; r++ {
			if r == 8 {
				db.Reserve(96, extBase, 48)
			}
			date := time.Date(2011, 9, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, 7*r)
			for _, v := range []Vantage{"penn", "tokyo"} {
				for _, id := range ids {
					if rng.Intn(3) == 0 {
						continue
					}
					fam := famBoth[rng.Intn(2)]
					round := r
					if r > 2 && rng.Intn(10) == 0 {
						round = r - 1 - rng.Intn(3) // a late sample
					}
					db.AddSample(v, id, fam, Sample{Round: round, Date: date, PageBytes: int(id%97) + r, Downloads: 3, MeanSpeed: float64(r), CIOK: r%3 != 0})
				}
			}
			for _, v := range db.Vantages() {
				tab := db.lookup(v)
				for from := int32(0); from <= int32(r)+1; from++ {
					datesFrom := rng.Intn(len(tab.dateTable()) + 1)
					var got, want wbuf
					ng := db.appendSamples(&got, v, 0, snapAllSites, from, datesFrom)
					nw := tab.referenceSamples(&want, db.res, from, datesFrom)
					if ng != nw || !bytes.Equal(got.b, want.b) {
						t.Fatalf("seed %d round %d %s from %d: %d entries %x, reference %d entries %x", seed, r, v, from, ng, got.b, nw, want.b)
					}
				}
			}
		}
	}
}
