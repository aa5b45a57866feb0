package store

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// genMonitorDNS generates a monitor-shaped DNS history: per site,
// strictly increasing rounds (with occasional gaps) and occasional
// state transitions — the input class whose CSV serialization must be
// byte-identical to the old row-per-round log.
func genMonitorDNS(rng *rand.Rand, sites []alexa.SiteID, rounds int) []DNSRow {
	var rows []DNSRow
	for _, id := range sites {
		hasA, hasAAAA, ident := true, rng.Intn(4) == 0, false
		for r := 0; r < rounds; r++ {
			if rng.Intn(12) == 0 {
				continue // missed round (fetch failure)
			}
			if rng.Intn(8) == 0 {
				hasAAAA = !hasAAAA
			}
			if rng.Intn(10) == 0 {
				ident = !ident
			}
			rows = append(rows, DNSRow{Site: id, Round: r, HasA: hasA, HasAAAA: hasAAAA, Identical: ident})
		}
	}
	return rows
}

// referenceDNSCSV serializes raw rows the way the pre-columnar writer
// did: one row per observation, sorted by (site, round) per vantage.
func referenceDNSCSV(t *testing.T, v Vantage, rows []DNSRow) []byte {
	t.Helper()
	sorted := append([]DNSRow(nil), rows...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Site != sorted[j].Site {
			return sorted[i].Site < sorted[j].Site
		}
		return sorted[i].Round < sorted[j].Round
	})
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write([]string{"vantage", "site", "round", "has_a", "has_aaaa", "identical"}); err != nil {
		t.Fatal(err)
	}
	for _, r := range sorted {
		if err := w.Write([]string{
			string(v), strconv.FormatInt(int64(r.Site), 10), strconv.Itoa(r.Round),
			strconv.FormatBool(r.HasA), strconv.FormatBool(r.HasAAAA), strconv.FormatBool(r.Identical),
		}); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	return buf.Bytes()
}

// TestDNSDeltaCSVByteIdentical proves the delta-encoded history
// expands to a dns.csv byte-identical to the row-per-round reference
// writer across three seeds, for reserved (columnar) and unreserved
// (overflow) databases alike.
func TestDNSDeltaCSVByteIdentical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, reserve := range []bool{true, false} {
			rng := rand.New(rand.NewSource(seed))
			var sites []alexa.SiteID
			for i := 0; i < 120; i++ {
				sites = append(sites, alexa.SiteID(rng.Intn(400)))
			}
			slices.Sort(sites)
			sites = slices.Compact(sites)
			// Shuffle so insertion order is not canonical order.
			rng.Shuffle(len(sites), func(i, j int) { sites[i], sites[j] = sites[j], sites[i] })
			rows := genMonitorDNS(rng, sites, 30)

			db := NewDB()
			if reserve {
				db.Reserve(400, 1<<20, 0)
			}
			// Feed per-site histories through interleaved batches, the
			// way concurrent workers do.
			byRound := append([]DNSRow(nil), rows...)
			sort.SliceStable(byRound, func(i, j int) bool { return byRound[i].Round < byRound[j].Round })
			for start := 0; start < len(byRound); start += 7 {
				end := min(start+7, len(byRound))
				db.AddDNSBatch("penn", byRound[start:end])
			}

			dir := t.TempDir()
			if err := db.Save(dir); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, "dns.csv"))
			if err != nil {
				t.Fatal(err)
			}
			want := referenceDNSCSV(t, "penn", rows)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d reserve=%v: dns.csv differs from the row-per-round reference (%d vs %d bytes)",
					seed, reserve, len(got), len(want))
			}
			// The expanded row count must match too.
			if n := len(db.DNS("penn")); n != len(rows) {
				t.Fatalf("seed %d: %d expanded rows, want %d", seed, n, len(rows))
			}
		}
	}
}

// TestDNSOutOfOrderAndDuplicates: rows that violate the monitor's
// per-site round ordering (including exact duplicates) must survive
// as observations — the delta encoder may not silently dedupe them.
func TestDNSOutOfOrderAndDuplicates(t *testing.T) {
	db := NewDB()
	rows := []DNSRow{
		{Site: 7, Round: 3, HasA: true},
		{Site: 7, Round: 4, HasA: true},
		{Site: 7, Round: 3, HasA: true},                // duplicate round
		{Site: 7, Round: 1, HasA: true, HasAAAA: true}, // out of order
		{Site: 7, Round: 5, HasA: true},
	}
	for _, r := range rows {
		db.AddDNS("penn", r)
	}
	got := db.DNS("penn")
	if len(got) != len(rows) {
		t.Fatalf("%d rows stored, want %d", len(got), len(rows))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Round < got[i-1].Round {
			t.Fatalf("expanded rows not round-sorted: %+v", got)
		}
	}
	if _, d, _, _ := db.Counts(); d != len(rows) {
		t.Fatalf("Counts dns = %d, want %d", d, len(rows))
	}
	// Round-trip: the loaded database reports the same rows.
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.DNS("penn"), got) {
		t.Fatal("out-of-order rows did not survive a save/load round trip")
	}
}

// TestDNSStats sanity-checks the compression surface: a site with one
// transition stores two runs regardless of round count.
func TestDNSStats(t *testing.T) {
	db := NewDB()
	for r := 0; r < 20; r++ {
		db.AddDNS("penn", DNSRow{Site: 1, Round: r, HasA: true, HasAAAA: r >= 10})
	}
	rows, runs, sites := db.DNSStats("penn")
	if rows != 20 || runs != 2 || sites != 1 {
		t.Fatalf("DNSStats = (%d rows, %d runs, %d sites), want (20, 2, 1)", rows, runs, sites)
	}
}

// TestReserveMigratesOverflow: rows stored before a Reserve (overflow
// maps) must be readable — and identical — after the ranges grow over
// their ids.
func TestReserveMigratesOverflow(t *testing.T) {
	db := NewDB()
	const extBase alexa.SiteID = 1 << 20
	ids := []alexa.SiteID{0, 5, 31, 200, extBase, extBase + 77}
	for _, id := range ids {
		db.PutSite(SiteRow{Site: id, Host: alexa.HostName(id), FirstRank: int(id%1000) + 1, V4AS: 3, V6AS: -1})
		for r := 0; r < 5; r++ {
			db.AddDNS("penn", DNSRow{Site: id, Round: r, HasA: true, HasAAAA: r >= 3})
			db.AddSample("penn", id, topo.V4, Sample{Round: r, MeanSpeed: float64(r) + 1, CIOK: true})
		}
	}
	before := db.DNS("penn")
	beforeSites := db.Sites()
	beforeSamples := db.Freeze().Series(nil, "penn", 200, topo.V4)

	db.Reserve(256, extBase, 100)

	if got := db.DNS("penn"); !reflect.DeepEqual(got, before) {
		t.Fatal("DNS rows changed across Reserve migration")
	}
	if got := db.Sites(); !reflect.DeepEqual(got, beforeSites) {
		t.Fatalf("site rows changed across Reserve migration:\n%+v\nvs\n%+v", got, beforeSites)
	}
	if got := db.Freeze().Series(nil, "penn", 200, topo.V4); !reflect.DeepEqual(got, beforeSamples) {
		t.Fatal("samples changed across Reserve migration")
	}
	// Growing further must keep everything again.
	db.Reserve(1024, extBase, 200)
	if got := db.DNS("penn"); !reflect.DeepEqual(got, before) {
		t.Fatal("DNS rows changed across second Reserve growth")
	}
	// A different extended base is a programming error.
	defer func() {
		if recover() == nil {
			t.Fatal("Reserve with a different extended base did not panic")
		}
	}()
	db.Reserve(1024, extBase*2, 10)
}

// TestReserveGrowsInSteps grows a populated database's reservation step
// by step over the main and extended ranges: jumps that reallocate the
// columns, small steps that fit in their spare capacity, and steps that
// cover overflow entries, which must migrate in. Every DNS history,
// sample series and site row must survive each step, every column must
// match the reservation, and every slot not holding a stored site must
// be empty (no site row, no DNS history, no sample series).
func TestReserveGrowsInSteps(t *testing.T) {
	const extBase alexa.SiteID = 1 << 20
	vantages := []Vantage{"penn", "seattle"}
	db := NewDB()
	db.Reserve(40, extBase, 24)
	// In range from the start, then overflow ids that later steps cover,
	// then ids no step reaches.
	ids := []alexa.SiteID{0, 7, 39, 41, 77, 530, 2049, 9000, extBase, extBase + 23, extBase + 30, extBase + 600, extBase + 5000}
	stored := make(map[alexa.SiteID]bool)
	date := time.Date(2011, 3, 1, 0, 0, 0, 0, time.UTC)
	for k, id := range ids {
		stored[id] = true
		host := alexa.HostName(id)
		if k%4 == 1 {
			host = fmt.Sprintf("custom-%d.example", k)
		}
		db.PutSite(SiteRow{Site: id, Host: host, FirstRank: k + 1, V4AS: k, V6AS: k%3 - 1})
		for _, v := range vantages {
			for r := 0; r < 6; r++ {
				db.AddDNS(v, DNSRow{Site: id, Round: r, HasA: true, HasAAAA: r >= k%5, Identical: r%2 == 0})
				db.AddSample(v, id, topo.Family(r%2), Sample{Round: r, Date: date.AddDate(0, 0, 7*r), PageBytes: 1000 + k, Downloads: r + 1, MeanSpeed: float64(k) + 0.5, CIOK: r > 1})
			}
		}
	}
	wantSites := db.Sites()
	wantDNS := make(map[Vantage][]DNSRow)
	wantSamples := make(map[Vantage][][]Sample)
	snap := db.Freeze()
	for _, v := range vantages {
		wantDNS[v] = db.DNS(v)
		for _, id := range ids {
			for _, fam := range []topo.Family{topo.V4, topo.V6} {
				wantSamples[v] = append(wantSamples[v], snap.Series(nil, v, id, fam))
			}
		}
	}

	for _, step := range []struct{ main, ext int }{
		{48, 24}, {50, 31}, {90, 40}, {600, 60}, {604, 601}, {700, 700}, {2100, 701}, {2300, 800},
	} {
		db.Reserve(step.main, extBase, step.ext)
		name := fmt.Sprintf("Reserve(%d, ext %d)", step.main, step.ext)
		if got := db.Sites(); !reflect.DeepEqual(got, wantSites) {
			t.Fatalf("%s: site rows changed:\n%+v\nwant\n%+v", name, got, wantSites)
		}
		snap := db.Freeze()
		for _, v := range vantages {
			if got := db.DNS(v); !reflect.DeepEqual(got, wantDNS[v]) {
				t.Fatalf("%s: %s DNS rows changed", name, v)
			}
			k := 0
			for _, id := range ids {
				for _, fam := range []topo.Family{topo.V4, topo.V6} {
					if got := snap.Series(nil, v, id, fam); !reflect.DeepEqual(got, wantSamples[v][k]) {
						t.Fatalf("%s: %s samples of site %d fam %v changed", name, v, id, fam)
					}
					k++
				}
			}
		}
		checkReservedColumns(t, name, db, stored)
	}
}

// checkReservedColumns asserts that every dense column of db spans
// exactly its reservation, that no overflow entry lies inside it, and
// that every slot whose id is not in stored is empty.
func checkReservedColumns(t *testing.T, name string, db *DB, stored map[alexa.SiteID]bool) {
	t.Helper()
	res := db.res
	ranges := []struct {
		base alexa.SiteID
		n    int
	}{{0, res.main}, {res.extBase, res.ext}}
	inRange := func(id alexa.SiteID) bool { table, _ := res.locate(id); return table >= 0 }
	for i := range db.sites {
		sh := &db.sites[i]
		for id := range sh.over {
			if inRange(id) {
				t.Fatalf("%s: site %d left in the overflow map", name, id)
			}
		}
		for table, cols := range []*siteCols{&sh.main, &sh.ext} {
			n := slotsFor(ranges[table].n)
			if len(cols.present) != n || len(cols.firstRank) != n || len(cols.v4) != n || len(cols.v6) != n {
				t.Fatalf("%s: site shard %d table %d columns %d/%d/%d/%d long, want %d", name, i, table,
					len(cols.present), len(cols.firstRank), len(cols.v4), len(cols.v6), n)
			}
			for slot := 0; slot < n; slot++ {
				id := ranges[table].base + alexa.SiteID(slot<<shardBits+i)
				if !stored[id] && (cols.present[slot] || cols.firstRank[slot] != 0 || cols.v4[slot] != 0 || cols.v6[slot] != 0) {
					t.Fatalf("%s: empty site slot of id %d holds data", name, id)
				}
			}
		}
	}
	for v, vt := range db.vantages {
		for i := range vt.dns {
			d, s := &vt.dns[i], &vt.samples[i]
			for id := range d.over {
				if inRange(id) {
					t.Fatalf("%s: %s DNS history of %d left in the overflow map", name, v, id)
				}
			}
			for f := 0; f < 2; f++ {
				for id := range s.over[f] {
					if inRange(id) {
						t.Fatalf("%s: %s series of %d left in the overflow map", name, v, id)
					}
				}
			}
			for table, hist := range [][]dnsHist{d.main, d.ext} {
				slots := [2]famSlots{s.main[0], s.main[1]}
				if table == 1 {
					slots = [2]famSlots{s.ext[0], s.ext[1]}
				}
				n := slotsFor(ranges[table].n)
				if len(hist) != n || len(slots[0]) != n || len(slots[1]) != n {
					t.Fatalf("%s: %s shard %d table %d columns %d/%d/%d long, want %d", name, v, i, table,
						len(hist), len(slots[0]), len(slots[1]), n)
				}
				for slot := 0; slot < n; slot++ {
					id := ranges[table].base + alexa.SiteID(slot<<shardBits+i)
					if stored[id] {
						continue
					}
					if hist[slot] != (dnsHist{}) || slots[0][slot] != -1 || slots[1][slot] != -1 {
						t.Fatalf("%s: %s empty slot of id %d holds data", name, v, id)
					}
				}
			}
		}
	}
}

// TestColumnarConcurrentAppends exercises the columnar append path —
// interned site rows, delta-encoded DNS, packed samples — from many
// goroutines with interleaved readers. Run under -race (the CI race
// job covers ./internal/store).
func TestColumnarConcurrentAppends(t *testing.T) {
	db := NewDB()
	db.Reserve(4096, 1<<20, 512)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Disjoint site slices per goroutine (the monitor's
			// partition), but shared shards and vantage tables.
			base := alexa.SiteID(w * 200)
			for r := 0; r < 25; r++ {
				var batch []DNSRow
				for k := alexa.SiteID(0); k < 200; k++ {
					id := base + k
					batch = append(batch, DNSRow{Site: id, Round: r, HasA: true, HasAAAA: r > 10 && k%7 == 0})
				}
				db.AddDNSBatch("penn", batch)
				var views []CanonicalSite
				for k := alexa.SiteID(0); k < 200; k += 50 {
					id := base + k
					views = append(views, CanonicalSite{Site: id, FirstRank: int(id) + 1, V4AS: 3, V6AS: -1})
					db.AddSample("penn", id, topo.V4, Sample{Round: r, MeanSpeed: 12, CIOK: true})
					db.AddSample("penn", 1<<20+id%512, topo.V6, Sample{Round: r, MeanSpeed: 9, CIOK: true})
				}
				db.EnsureCanonicalSites(views)
				if r%10 == 0 {
					snap := db.Freeze()
					snap.Series(nil, "penn", base, topo.V4)
					snap.SeriesLen("penn", base, topo.V4)
				}
			}
		}(w)
	}
	wg.Wait()
	sites, dns, samples, _ := db.Counts()
	wantDNS := 16 * 200 * 25
	if dns != wantDNS {
		t.Fatalf("lost DNS rows: %d, want %d", dns, wantDNS)
	}
	if sites != 16*4 {
		t.Fatalf("site rows: %d, want %d", sites, 16*4)
	}
	if samples == 0 {
		t.Fatal("no samples stored")
	}
	if got := len(db.DNS("penn")); got != wantDNS {
		t.Fatalf("expanded DNS rows: %d, want %d", got, wantDNS)
	}
}

// TestHostInterning: canonical hosts are derivable, so only
// non-canonical hosts may occupy memory — and both kinds round-trip.
func TestHostInterning(t *testing.T) {
	db := NewDB()
	db.Reserve(64, 0, 0)
	db.PutSite(SiteRow{Site: 1, Host: alexa.HostName(1), FirstRank: 1, V4AS: 2, V6AS: -1})
	db.PutSite(SiteRow{Site: 2, Host: "custom.example", FirstRank: 2, V4AS: 2, V6AS: -1})
	db.EnsureCanonicalSites([]CanonicalSite{{Site: 3, FirstRank: 3, V4AS: 4, V6AS: -1}})
	for id, want := range map[alexa.SiteID]string{1: alexa.HostName(1), 2: "custom.example", 3: alexa.HostName(3)} {
		r, ok := db.Site(id)
		if !ok || r.Host != want {
			t.Fatalf("site %d host = %q (%v), want %q", id, r.Host, ok, want)
		}
	}
	// Overwriting a custom host with the canonical one drops the
	// override; overwriting canonical with custom keeps the new one.
	db.PutSite(SiteRow{Site: 2, Host: alexa.HostName(2), FirstRank: 2, V4AS: 2, V6AS: -1})
	db.PutSite(SiteRow{Site: 1, Host: "odd.example", FirstRank: 1, V4AS: 2, V6AS: -1})
	if r, _ := db.Site(2); r.Host != alexa.HostName(2) {
		t.Fatalf("site 2 host = %q", r.Host)
	}
	if r, _ := db.Site(1); r.Host != "odd.example" {
		t.Fatalf("site 1 host = %q", r.Host)
	}
	if sh := db.siteShard(2); len(sh.hostOver) != 0 {
		// Site 2's shard must have dropped its override entry.
		if _, ok := sh.hostOver[2]; ok {
			t.Fatal("canonical overwrite left a host override behind")
		}
	}
}

func ExampleDB_DNSStats() {
	db := NewDB()
	for r := 0; r < 35; r++ {
		db.AddDNS("penn", DNSRow{Site: 9, Round: r, HasA: true, HasAAAA: r >= 20, Identical: r >= 20})
	}
	rows, runs, sites := db.DNSStats("penn")
	fmt.Printf("rows=%d runs=%d sites=%d\n", rows, runs, sites)
	// Output: rows=35 runs=2 sites=1
}
