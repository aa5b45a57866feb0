package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// chainRound appends round r to db in a monitor's shape, on top of
// binarySampleDB (rounds < 10): most sites extend their open run,
// site 1 flips state every round, site 7 skips rounds, site 8 stops
// after round 12, site 4 is written after the others, an extended and
// an overflow site keep measuring, samples, path snapshots and site
// rows change, a vantage appears at round 13 and the reservation grows
// at round 15.
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
	db, err := b.LoadSnapshot(SnapMain)
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
		b.Keep = 2
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

// TestChainSurvivesPruningAndFallsBack: with Keep 1 the newest chain
// loads through its hard links once the base's own directory is gone;
// a chain directory has no whole main.v6db, so a loader that knows
// only whole snapshots and CSV directories reports ErrNoDatabase; and
// once the predecessor directory is removed, the next checkpoint is a
// base.
func TestChainSurvivesPruningAndFallsBack(t *testing.T) {
	dir := t.TempDir()
	b := NewCheckpointBackend(dir)
	b.Keep = 1
	db := binarySampleDB()
	for r := 10; r < 13; r++ {
		chainRound(db, r)
		if err := commit(b, db, r); err != nil {
			t.Fatal(err)
		}
	}
	names, err := b.committed()
	if err != nil || len(names) != 1 || names[0] == "ck-000000" {
		t.Fatalf("committed after pruning: %v err=%v", names, err)
	}
	if newestIsBase(t, b) {
		t.Fatal("newest checkpoint is not a chain")
	}
	requireLoadsAs(t, dir, db)

	ck := filepath.Join(b.root(), names[0])
	if _, err := LoadBinary(filepath.Join(ck, SnapMain+BinaryExt)); !errors.Is(err, ErrNoDatabase) {
		t.Fatalf("whole-snapshot load of a chain directory: %v, want ErrNoDatabase", err)
	}
	if _, err := Load(filepath.Join(ck, SnapMain)); !errors.Is(err, ErrNoDatabase) {
		t.Fatalf("CSV load of a chain directory: %v, want ErrNoDatabase", err)
	}

	if err := os.RemoveAll(ck); err != nil {
		t.Fatal(err)
	}
	chainRound(db, 13)
	if err := commit(b, db, 13); err != nil {
		t.Fatal(err)
	}
	if !newestIsBase(t, b) {
		t.Fatal("a missing predecessor did not force a base")
	}
	requireLoadsAs(t, dir, db)
}

// TestChainMismatchIsCorrupt: a segment applied to a database in any
// state but the one it continues, a chain with a segment missing, or a
// segment whose out-of-order row counts (per vantage in its state
// section, and closing each dns section; always 0) are not — the dns
// count carrying a duplicate or an earlier round, at a dense id or an
// overflow id — fails as a *CorruptSnapshotError blaming that part.
// The same crafted segment with both counts at 0 applies.
func TestChainMismatchIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	b := NewCheckpointBackend(dir)
	b.Keep = 0
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
	if err := os.Remove(filepath.Join(ck, segName(SnapMain, 1))); err != nil {
		t.Fatal(err)
	}
	if _, err := b.LoadSnapshot(SnapMain); !errors.As(err, &ce) {
		t.Fatalf("chain missing segment 1: %v, want *CorruptSnapshotError", err)
	}

	m := orderTestDB().state(false)
	segment := func(stateOOO int, dns []byte) []byte {
		var st wbuf
		st.uvarint(uint64(m.sites))
		st.uvarint(uint64(len(m.vantages)))
		for _, vm := range m.vantages {
			st.uvarint(uint64(len(vm.v)))
			st.bytes([]byte(vm.v))
			ooo := 0
			if vm.v == "penn" {
				ooo = stateOOO
			}
			for _, x := range []int{int(vm.round), vm.dnsRows, ooo, vm.sampleRows, vm.dates, vm.paths} {
				st.uvarint(uint64(x))
			}
		}
		path := filepath.Join(t.TempDir(), segName("crafted", 1))
		err := saveFrames(path, BinaryOptions{}, func(f *os.File, opt BinaryOptions) error {
			fw, err := newFrameWriter(f, opt)
			if err != nil {
				return err
			}
			if err := fw.section(segState, "", st.b, 1+len(m.vantages)); err != nil {
				return err
			}
			if err := fw.section(ShardDNS, "penn", dns, 1); err != nil {
				return err
			}
			return fw.finish(segMagic, m.res)
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
	// dns is a segment dns section with no changed site and ooo
	// out-of-order rows, each c's.
	dns := func(c orderCase, ooo int) []byte {
		var w wbuf
		w.uvarint(uint64(m.vantage("penn").round))
		w.uvarint(0)
		w.uvarint(0)
		w.uvarint(uint64(ooo))
		for k := 0; k < ooo; k++ {
			w.uvarint(uint64(c.row.Site))
			w.uvarint(uint64(c.row.Round))
			w.byteVal(dnsHasA)
		}
		return w.b
	}
	apply := func(what string, data []byte) string {
		t.Helper()
		err := applySegment(orderTestDB(), "crafted"+segExt, data)
		var ce *CorruptSnapshotError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: %v, want a *CorruptSnapshotError", what, err)
		}
		return ce.Section
	}
	for _, c := range orderCases() {
		if err := applySegment(orderTestDB(), "crafted"+segExt, segment(0, dns(c, 0))); err != nil {
			t.Fatalf("%s: with zero counts: %v", c.name, err)
		}
		if got := apply(c.name, segment(0, dns(c, 1))); got != "dns/penn" {
			t.Errorf("%s: blamed %q, want dns/penn", c.name, got)
		}
	}
	if got := apply("state count", segment(1, dns(orderCases()[0], 0))); got != "state" {
		t.Errorf("a non-zero state count blamed %q, want state", got)
	}
}

// referenceSegSamples is the segment sample encoder as it walked every
// reserved slot: per stripe with appends since the mark, per family,
// the main slots, the ext slots, then the sorted overflow ids.
func (t *vantageTable) referenceSegSamples(w *wbuf, res reservation, from int32, datesFrom int) int {
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

// TestSegSamplesMatchReferenceEncoder: the owner-driven segment sample
// encoder writes the bytes of the slot walk it replaced, for databases
// with dense main and extended series, overflow series on both sides
// of each range, series a later Reserve migrates into the dense
// ranges, stripes without appends since a mark, late samples below
// the newest round, and every mark round.
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
			if r%5 == 4 {
				db.mark() // later stripes without appends are skipped
			}
			for _, v := range db.Vantages() {
				tab := db.lookup(v)
				for from := int32(0); from <= int32(r)+1; from++ {
					datesFrom := rng.Intn(len(tab.dateTable()) + 1)
					var got, want wbuf
					ng := tab.appendSegSamples(&got, db.res, from, datesFrom)
					nw := tab.referenceSegSamples(&want, db.res, from, datesFrom)
					if ng != nw || !bytes.Equal(got.b, want.b) {
						t.Fatalf("seed %d round %d %s from %d: %d entries %x, reference %d entries %x", seed, r, v, from, ng, got.b, nw, want.b)
					}
				}
			}
		}
	}
}
