package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
// random order and one of them sometimes in another zone, so the date
// dictionary's order is that of the dates' first adds.
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
// per-block cycle — add every site's view and DNS row and a sample per
// family for every sixteenth site, then Flush — allocates nothing for
// dense sites whose rows are unchanged, whose DNS runs extend, and
// whose sample series exist, dated with a date the vantage's
// dictionary already holds.
func TestFlushWarmAllocsZero(t *testing.T) {
	const block = 1024
	db := NewDB()
	db.Reserve(block, 0, 0)
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
		db.Flush("penn", batch)
		round++
	}
	cycle()
	for i := range batch.sites {
		if s, d := cap(batch.sites[i]), cap(batch.dns[i]); s != block/shards || d != block/shards {
			t.Fatalf("stripe %d: a block grew NewBatch's buckets to %d and %d rows, want %d", i, s, d, block/shards)
		}
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("warm add-and-flush cycle allocates %v times, want 0", allocs)
	}
	if rows, runs, sites := db.DNSStats("penn"); rows != block*round || runs != block || sites != block {
		t.Fatalf("DNSStats = %d rows, %d runs, %d sites; want %d, %d, %d", rows, runs, sites, block*round, block, block)
	}
	if _, _, samples, _ := db.Counts(); samples != 2*block/16*round {
		t.Fatalf("%d samples, want %d", samples, 2*block/16*round)
	}
}
