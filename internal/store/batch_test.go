package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// flushTestSites returns the ids a randomized flush test draws from:
// dense main ids, dense extended ids, and overflow ids on both sides
// of each dense range.
func flushTestSites(extBase alexa.SiteID) []alexa.SiteID {
	var ids []alexa.SiteID
	for id := alexa.SiteID(0); id < 120; id++ {
		ids = append(ids, id)
	}
	for id := extBase; id < extBase+48; id++ {
		ids = append(ids, id)
	}
	for k := alexa.SiteID(0); k < 24; k++ {
		ids = append(ids, 300+k*7, extBase+200+k*3)
	}
	return ids
}

// TestFlushMatchesRowByRow: DB.Flush over one reused Batch leaves the
// same site rows, DNS rows, sample series and SaveBinary bytes as
// applying the same rows one at a time through PutSite (canonical
// host), AddDNS and AddSample, in the order Flush promises: site views
// and samples in batch order, DNS rows by lock stripe, then batch
// order. The batches mix dense main and extended ids with overflow
// ids, repeat a site's view within one batch on both sides of the
// adoption flip, and skip rounds for some sites; direct PutSite writes
// land between flushes. Each batch's samples carry two dates, in
// random order and one of them sometimes in another zone, which must
// land as the same instants.
func TestFlushMatchesRowByRow(t *testing.T) {
	const extBase = alexa.SiteID(1 << 20)
	ids := flushTestSites(extBase)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		want, got := NewDB(), NewDB()
		for _, db := range []*DB{want, got} {
			db.Reserve(120, extBase, 48)
		}
		adopted := make(map[alexa.SiteID]bool)
		var batch Batch
		cest := time.FixedZone("CEST", 2*3600)
		for round := 0; round < 12; round++ {
			day := time.Date(2011, 1, 5, 0, 0, 0, 0, time.UTC).AddDate(0, 0, 7*round)
			dates := [2]time.Time{day, day.Add(30 * time.Minute)}
			// A direct write between flushes, with values no view
			// carries: the flush must not replay views it has already
			// applied over it.
			for k := 0; k < 3; k++ {
				id := ids[rng.Intn(len(ids))]
				row := SiteRow{Site: id, Host: "direct.example", FirstRank: 5000 + round, V4AS: 99, V6AS: 99}
				want.PutSite(row)
				got.PutSite(row)
			}
			// Visit the sites in a fresh random order, so a batch's
			// rows interleave the stripes.
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			var views []CanonicalSite
			var rows []DNSRow
			for _, id := range ids {
				if rng.Intn(4) == 0 {
					continue // not visited this round
				}
				view := CanonicalSite{Site: id, FirstRank: int(id%1000) + 1, V4AS: int(id % 13), V6AS: -1}
				if adopted[id] {
					view.V6AS = int(id % 17)
				}
				row := DNSRow{Site: id, Round: round, HasA: true, HasAAAA: adopted[id], Identical: adopted[id] && rng.Intn(3) > 0}
				views = append(views, view)
				switch rng.Intn(12) {
				case 0:
					// The site adopts mid-batch: a second view on the
					// other side of the flip, which wins, and the
					// round's one DNS row shows the adoption.
					adopted[id] = true
					view.V6AS, row.HasAAAA = int(id%17), true
					views = append(views, view)
				case 3:
					if !adopted[id] && rng.Intn(2) == 0 {
						adopted[id] = true
					}
				}
				rows = append(rows, row)
			}
			for _, v := range views {
				want.PutSite(SiteRow{Site: v.Site, Host: alexa.HostName(v.Site), FirstRank: v.FirstRank, V4AS: v.V4AS, V6AS: v.V6AS})
				batch.AddSite(v)
			}
			byStripe := slices.Clone(rows)
			slices.SortStableFunc(byStripe, func(a, b DNSRow) int {
				return int(uint64(a.Site)&(shards-1)) - int(uint64(b.Site)&(shards-1))
			})
			for _, r := range byStripe {
				want.AddDNS("penn", r)
			}
			for _, r := range rows {
				batch.AddDNS(r)
			}
			for _, r := range rows {
				for _, fam := range [...]topo.Family{topo.V4, topo.V6} {
					if rng.Intn(3) > 0 {
						continue
					}
					date := dates[rng.Intn(2)]
					if rng.Intn(2) == 0 {
						date = date.In(cest)
					}
					s := Sample{Round: round, Date: date, PageBytes: rng.Intn(100000), Downloads: 3 + rng.Intn(8),
						MeanSpeed: 100 * rng.Float64(), CIOK: rng.Intn(4) > 0}
					want.AddSample("penn", r.Site, fam, s)
					batch.AddSample(r.Site, fam, s)
				}
			}
			got.Flush("penn", &batch)
		}
		if w, g := want.Sites(), got.Sites(); !reflect.DeepEqual(w, g) {
			t.Fatalf("seed %d: site rows differ:\n got %+v\nwant %+v", seed, g, w)
		}
		if w, g := want.DNS("penn"), got.DNS("penn"); !reflect.DeepEqual(w, g) {
			t.Fatalf("seed %d: DNS rows differ (%d vs %d rows)", seed, len(g), len(w))
		}
		ws, gs := want.Freeze(), got.Freeze()
		for _, id := range ids {
			for _, fam := range [...]topo.Family{topo.V4, topo.V6} {
				if w, g := ws.Series(nil, "penn", id, fam), gs.Series(nil, "penn", id, fam); !reflect.DeepEqual(w, g) {
					t.Fatalf("seed %d: site %d family %v samples differ:\n got %+v\nwant %+v", seed, id, fam, g, w)
				}
			}
		}
		dir := t.TempDir()
		var saved [2][]byte
		for k, db := range []*DB{want, got} {
			path := filepath.Join(dir, []string{"want", "got"}[k]+BinaryExt)
			if err := db.SaveBinary(path, BinaryOptions{}); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			saved[k] = data
		}
		if !bytes.Equal(saved[0], saved[1]) {
			t.Fatalf("seed %d: SaveBinary bytes differ (%d vs %d bytes)", seed, len(saved[1]), len(saved[0]))
		}
	}
}

// TestFlushWithoutDNSCreatesNoVantage: a batch of site views alone
// (no DNS rows, no samples) leaves the vantage set untouched.
func TestFlushWithoutDNSCreatesNoVantage(t *testing.T) {
	db := NewDB()
	var batch Batch
	batch.AddSite(CanonicalSite{Site: 3, FirstRank: 3, V4AS: 4, V6AS: -1})
	db.Flush("penn", &batch)
	if vs := db.Vantages(); len(vs) != 0 {
		t.Fatalf("vantages = %v, want none", vs)
	}
	if _, ok := db.Site(3); !ok {
		t.Fatal("site row not flushed")
	}
}

// TestFlushWarmAllocsZero: NewBatch sizes its buckets for a block of
// contiguous ids, and once the batch has carried a block the monitor's
// per-block cycle — add every queried site's view and DNS row and a
// sample per family for every sixteenth site, carry a block of other
// sites, then Flush — allocates nothing for dense sites whose rows are
// unchanged and whose DNS runs extend, and for sample series that
// exist nothing but their growth by append: one allocation per series
// each time its length passes a power of two. The first cycle's
// carried visits find no history, come back, and are queried and
// flushed again, as RunRound does.
func TestFlushWarmAllocsZero(t *testing.T) {
	const block = 1024
	db := NewDB()
	db.Reserve(2*block, 0, 0)
	batch := NewBatch(block)
	date := time.Date(2011, 6, 8, 0, 0, 0, 0, time.UTC)
	round := 0
	cycle := func() {
		for id := alexa.SiteID(0); id < block; id++ {
			batch.AddSite(CanonicalSite{Site: id, FirstRank: int(id) + 1, V4AS: 7, V6AS: -1})
			batch.AddDNS(DNSRow{Site: id, Round: round, HasA: true})
			if id%16 == 0 {
				for _, fam := range [...]topo.Family{topo.V4, topo.V6} {
					batch.AddSample(id, fam, Sample{Round: round, Date: date, PageBytes: 1000, Downloads: 3, MeanSpeed: 50, CIOK: true})
				}
			}
		}
		for id := alexa.SiteID(block); id < 2*block; id++ {
			batch.Carry(id, round)
		}
		if db.Flush("penn", batch) > 0 {
			for id := alexa.SiteID(block); id < 2*block; id++ {
				if batch.Returned(id) {
					batch.AddSite(CanonicalSite{Site: id, FirstRank: int(id) + 1, V4AS: 7, V6AS: -1})
					batch.AddDNS(DNSRow{Site: id, Round: round, HasA: true})
				}
			}
			db.Flush("penn", batch)
		}
		round++
	}
	cycle()
	for i := range batch.sites {
		if s, d := cap(batch.sites[i]), cap(batch.dns[i]); s != block/shards || d != block/shards {
			t.Fatalf("stripe %d: a block grew NewBatch's buckets to %d and %d rows, want %d", i, s, d, block/shards)
		}
	}
	// AllocsPerRun warms up with one more cycle; the measured ones then
	// grow each series from round+2 to round+1+runs samples.
	const runs = 20
	series, doublings := 2*block/16, 0
	for n := round + 2; n <= round+1+runs; n++ {
		if (n-1)&(n-2) == 0 {
			doublings++
		}
	}
	if allocs, want := testing.AllocsPerRun(runs, cycle), float64(series*doublings/runs); allocs != want {
		t.Fatalf("warm add-carry-and-flush cycle allocates %v times, want %v: the growth of %d series by %d doublings", allocs, want, series, doublings)
	}
	if rows, runs, sites := db.DNSStats("penn"); rows != 2*block*round || runs != 2*block || sites != 2*block {
		t.Fatalf("DNSStats = %d rows, %d runs, %d sites; want %d, %d, %d", rows, runs, sites, 2*block*round, 2*block, 2*block)
	}
	if _, _, samples, _ := db.Counts(); samples != 2*block/16*round {
		t.Fatalf("%d samples, want %d", samples, 2*block/16*round)
	}
}

// segmentBytes is the checkpoint segment db writes against mark.
func segmentBytes(t *testing.T, db *DB, mark dbMark) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg"+segExt)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.writeSegment(f, BinaryOptions{}, mark); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// requireSameDNS fails unless want and got hold the same DNS history,
// sample series, counts and snapshot bytes at vantage v.
func requireSameDNS(t *testing.T, name string, want, got *DB, v Vantage, ids []alexa.SiteID) {
	t.Helper()
	if w, g := want.DNS(v), got.DNS(v); !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: DNS rows differ (%d vs %d rows)", name, len(g), len(w))
	}
	wr, wn, ws := want.DNSStats(v)
	gr, gn, gs := got.DNSStats(v)
	if wr != gr || wn != gn || ws != gs {
		t.Fatalf("%s: DNSStats %d rows, %d runs, %d sites; want %d, %d, %d", name, gr, gn, gs, wr, wn, ws)
	}
	wa, wb, wc, wd := want.Counts()
	ga, gb, gc, gd := got.Counts()
	if wa != ga || wb != gb || wc != gc || wd != gd {
		t.Fatalf("%s: Counts %d %d %d %d, want %d %d %d %d", name, ga, gb, gc, gd, wa, wb, wc, wd)
	}
	wf, gf := want.Freeze(), got.Freeze()
	for _, id := range ids {
		for _, fam := range [...]topo.Family{topo.V4, topo.V6} {
			if w, g := wf.Series(nil, v, id, fam), gf.Series(nil, v, id, fam); !reflect.DeepEqual(w, g) {
				t.Fatalf("%s: site %d family %v samples differ", name, id, fam)
			}
		}
	}
	if !bytes.Equal(snapshotBytes(t, want), snapshotBytes(t, got)) {
		t.Fatalf("%s: SaveBinary bytes differ", name)
	}
}

// TestFlushCarryMatchesAddDNS: carried visits flushed through a Batch
// leave a database equal to AddDNS of each site's last DNS row at the
// visit's round — the Freeze series, DNSStats, Counts, SaveBinary
// bytes and the bytes of a checkpoint segment written against a mark
// taken mid-way. The sites are dense main, dense extended and overflow
// ids; each round visits them in id order (so carries coalesce into
// runs) or shuffled, queries some with a fresh state (so histories
// spill past two runs), skips some (so a later carry finds a gap), and
// carries the rest. A carried visit the history cannot vouch for comes
// back through Returned, in carry order, and is then queried as the
// monitor does, or dropped.
func TestFlushCarryMatchesAddDNS(t *testing.T) {
	const extBase = alexa.SiteID(1 << 20)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ids := flushTestSites(extBase)
		want, got := NewDB(), NewDB()
		for _, db := range []*DB{want, got} {
			db.Reserve(120, extBase, 48)
		}
		end := make(map[alexa.SiteID]int)     // one past a site's last round
		last := make(map[alexa.SiteID]DNSRow) // a site's last row
		record := func(row DNSRow) {
			want.AddDNS("penn", row)
			end[row.Site], last[row.Site] = row.Round+1, row
		}
		var batch Batch
		var wantMark, gotMark dbMark
		carriedTotal, backTotal := 0, 0
		for round := 0; round < 14; round++ {
			if round == 7 {
				wantMark, _ = want.mark()
				gotMark, _ = got.mark()
			}
			order := slices.Clone(ids)
			slices.Sort(order)
			if rng.Intn(2) == 0 {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			var carried, wantBack []alexa.SiteID
			for _, id := range order {
				switch k := rng.Intn(10); {
				case k == 0:
					// Not visited this round.
				case k < 3:
					row := DNSRow{Site: id, Round: round, HasA: rng.Intn(4) > 0, HasAAAA: rng.Intn(2) == 0, Identical: rng.Intn(2) == 0}
					batch.AddDNS(row)
					record(row)
				default:
					batch.Carry(id, round)
					carried = append(carried, id)
				}
			}
			// The expected outcome of each carry, decided before any is
			// applied: every carried site is distinct within the round.
			for _, id := range carried {
				if end[id] == round && end[id] > 0 {
					row := last[id]
					row.Round = round
					record(row)
					continue
				}
				wantBack = append(wantBack, id)
			}
			back := got.Flush("penn", &batch)
			if back != len(wantBack) {
				t.Fatalf("seed %d round %d: Flush handed back %d carried visits, want %d", seed, round, back, len(wantBack))
			}
			var gotBack []alexa.SiteID
			for _, id := range carried {
				if batch.Returned(id) {
					gotBack = append(gotBack, id)
				}
			}
			if !slices.Equal(gotBack, wantBack) {
				t.Fatalf("seed %d round %d: Returned names %v, want %v", seed, round, gotBack, wantBack)
			}
			for _, id := range gotBack {
				if rng.Intn(3) == 0 {
					continue // dropped: never queried this round
				}
				row := DNSRow{Site: id, Round: round, HasA: true, HasAAAA: rng.Intn(3) == 0}
				batch.AddDNS(row)
				record(row)
			}
			if n := got.Flush("penn", &batch); n != 0 {
				t.Fatalf("seed %d round %d: a Flush without carried visits handed back %d", seed, round, n)
			}
			carriedTotal += len(carried) - len(wantBack)
			backTotal += len(wantBack)
		}
		if carriedTotal == 0 || backTotal == 0 {
			t.Fatalf("seed %d: degenerate run: %d carried visits applied, %d handed back", seed, carriedTotal, backTotal)
		}
		name := fmt.Sprintf("seed %d", seed)
		requireSameDNS(t, name, want, got, "penn", ids)
		if !bytes.Equal(segmentBytes(t, want, wantMark), segmentBytes(t, got, gotMark)) {
			t.Fatalf("%s: checkpoint segment bytes differ", name)
		}
	}
}

// TestFlushCarryReturnsUnvisited: a carried visit is handed back, and
// nothing is recorded or counted for it, when its site has no history
// at the vantage (a dense id, an id whose stripe has no column yet, an
// overflow id), when its history ends before the round before (a
// gap), and when its history already reaches the round. Returned names
// each once, in carry order; a carry-only Flush at a vantage with no
// table creates none.
func TestFlushCarryReturnsUnvisited(t *testing.T) {
	const extBase = alexa.SiteID(1 << 20)
	const round = 5
	build := func() *DB {
		db := NewDB()
		db.Reserve(64, extBase, 32)
		for r := 0; r < round; r++ {
			db.AddDNS("penn", DNSRow{Site: 1, Round: r, HasA: true}) // ends right before round
		}
		for r := 0; r < 3; r++ {
			db.AddDNS("penn", DNSRow{Site: 2, Round: r, HasA: true}) // a gap at round 3 and 4
		}
		for r := 0; r <= round; r++ {
			db.AddDNS("penn", DNSRow{Site: 3, Round: r, HasA: true, HasAAAA: true}) // reaches round
		}
		db.AddDNS("penn", DNSRow{Site: extBase + 1, Round: round - 1, HasA: true})
		return db
	}
	db, ref := build(), build()
	mark, _ := db.mark()
	refMark, _ := ref.mark()
	ref.AddDNS("penn", DNSRow{Site: 1, Round: round, HasA: true})
	ref.AddDNS("penn", DNSRow{Site: extBase + 1, Round: round, HasA: true})
	// Site 4 has a dense slot and no history; extBase+2 sits in a stripe
	// whose extended column no write has allocated; 5_000_000 is an
	// overflow id.
	carried := []alexa.SiteID{1, 2, 3, 4, extBase + 1, extBase + 2, 5_000_000}
	wantBack := []alexa.SiteID{2, 3, 4, extBase + 2, 5_000_000}
	var batch Batch
	for _, id := range carried {
		batch.Carry(id, round)
	}
	if back := db.Flush("penn", &batch); back != len(wantBack) {
		t.Fatalf("Flush handed back %d carried visits, want %d", back, len(wantBack))
	}
	var gotBack []alexa.SiteID
	for _, id := range carried {
		if batch.Returned(id) {
			gotBack = append(gotBack, id)
		}
	}
	if !slices.Equal(gotBack, wantBack) {
		t.Fatalf("Returned names %v, want %v", gotBack, wantBack)
	}
	for _, id := range carried {
		if batch.Returned(id) {
			t.Fatalf("Returned names site %d twice", id)
		}
	}
	requireSameDNS(t, "after the carries", ref, db, "penn", carried)
	if !bytes.Equal(segmentBytes(t, ref, refMark), segmentBytes(t, db, mark)) {
		t.Fatal("checkpoint segment bytes differ: a handed-back visit moved a watermark")
	}

	for _, id := range carried {
		batch.Carry(id, round)
	}
	if back := db.Flush("tokyo", &batch); back != len(carried) {
		t.Fatalf("a vantage without a table handed back %d of %d carried visits", back, len(carried))
	}
	if vs := db.Vantages(); !slices.Equal(vs, []Vantage{"penn"}) {
		t.Fatalf("vantages = %v after a carry-only Flush, want [penn]", vs)
	}
}

// TestConcurrentFlushCarry races carried visits: four writers, each
// owning every fourth block of 64 contiguous ids across the main and
// extended ranges, carry and query their blocks into one database for
// twelve rounds, each round's two Flushes per block as the monitor
// takes them, and the result must equal the same rows written one by
// one through AddDNS. Run under -race to check the stripe locking of
// the carried-visit path.
func TestConcurrentFlushCarry(t *testing.T) {
	const extBase = alexa.SiteID(1 << 20)
	const blocks, block, rounds = 16, 64, 12
	blockIDs := func(k int) []alexa.SiteID {
		base := alexa.SiteID(k * block)
		if k%2 == 1 {
			base = extBase + alexa.SiteID(k*block)
		}
		ids := make([]alexa.SiteID, block)
		for i := range ids {
			ids[i] = base + alexa.SiteID(i)
		}
		return ids
	}
	// state is a pure function of (site, round), so the reference and
	// the writers agree without sharing anything: a site queries at
	// rounds 0 and 6 and whenever it skipped the round before, and is
	// carried otherwise; sites ≡ 3 mod 7 skip every fourth round.
	skips := func(id alexa.SiteID, r int) bool { return id%7 == 3 && r%4 == 2 }
	queries := func(id alexa.SiteID, r int) bool { return r == 0 || r == 6 || skips(id, r-1) }
	rowAt := func(id alexa.SiteID, r int) DNSRow {
		return DNSRow{Site: id, Round: r, HasA: true, HasAAAA: r >= 6 && id%5 == 0}
	}
	want, got := NewDB(), NewDB()
	for _, db := range []*DB{want, got} {
		db.Reserve(blocks*block, extBase, blocks*block)
	}
	var all []alexa.SiteID
	for k := 0; k < blocks; k++ {
		all = append(all, blockIDs(k)...)
	}
	for r := 0; r < rounds; r++ {
		for _, id := range all {
			if !skips(id, r) {
				want.AddDNS("penn", rowAt(id, r))
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := NewBatch(block)
			for r := 0; r < rounds; r++ {
				for k := w; k < blocks; k += 4 {
					ids := blockIDs(k)
					for _, id := range ids {
						switch {
						case skips(id, r):
						case queries(id, r):
							batch.AddDNS(rowAt(id, r))
						default:
							batch.Carry(id, r)
						}
					}
					if got.Flush("penn", batch) == 0 {
						continue
					}
					for _, id := range ids {
						if batch.Returned(id) {
							batch.AddDNS(rowAt(id, r))
						}
					}
					got.Flush("penn", batch)
				}
			}
		}(w)
	}
	wg.Wait()
	requireSameDNS(t, "concurrent carries", want, got, "penn", nil)
}
