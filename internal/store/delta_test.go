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
	"strings"
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
			var batch Batch
			for start := 0; start < len(byRound); start += 7 {
				for _, row := range byRound[start:min(start+7, len(byRound))] {
					batch.AddDNS(row)
				}
				db.Flush("penn", &batch)
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
			// So must the run reader's runs, expanded.
			var expanded []DNSRow
			db.ForEachDNSRun("penn", func(row DNSRow, n int) {
				for k := 0; k < n; k++ {
					expanded = append(expanded, row)
					row.Round++
				}
			})
			if !reflect.DeepEqual(expanded, db.DNS("penn")) {
				t.Fatalf("seed %d reserve=%v: ForEachDNSRun's runs expand to %d rows unequal to ForEachDNS's", seed, reserve, len(expanded))
			}
		}
	}
}

// orderCase is a DNS row that does not extend its site's history in
// orderTestDB: a duplicate of the history's last round or an earlier
// round, at a dense id or at an overflow id.
type orderCase struct {
	name string
	row  DNSRow
}

func orderCases() []orderCase {
	var cases []orderCase
	for _, site := range []struct {
		name string
		id   alexa.SiteID
	}{{"dense", 5}, {"overflow", 5_000_000}} {
		for _, round := range []struct {
			name  string
			round int
		}{{"duplicate", 4}, {"earlier", 2}} {
			cases = append(cases, orderCase{site.name + "-" + round.name, DNSRow{Site: site.id, Round: round.round, HasA: true}})
		}
	}
	return cases
}

// orderTestDB is binarySampleDB with the penn histories of sites 5
// (dense) and 5,000,000 (overflow) running over rounds 0 to 4.
func orderTestDB() *DB {
	db := binarySampleDB()
	for r := 0; r < 5; r++ {
		db.AddDNS("penn", DNSRow{Site: 5, Round: r, HasA: true})
		if r > 0 {
			db.AddDNS("penn", DNSRow{Site: 5_000_000, Round: r, HasA: true})
		}
	}
	return db
}

// message is how every entrance names the case's row.
func (c orderCase) message() string {
	return fmt.Sprintf(`vantage "penn" site %d round %d does not extend the site's DNS history, which ends at round 4`, c.row.Site, c.row.Round)
}

// dnsSection encodes a DNS section in the snapshot and shard-wire
// layout, ids against lo: the case's site with its run over rounds 0
// to 4, then an out-of-order row count of ooo, each row the case's.
func (c orderCase) dnsSection(lo alexa.SiteID, ooo int) []byte {
	var w wbuf
	w.uvarint(1)
	w.uvarint(uint64(c.row.Site - lo + 1))
	w.uvarint(1)
	w.uvarint(0)
	w.uvarint(5)
	w.byteVal(dnsHasA)
	w.uvarint(uint64(ooo))
	for k := 0; k < ooo; k++ {
		w.uvarint(uint64(c.row.Round))
		w.byteVal(dnsHasA)
	}
	return w.b
}

// panicOf runs fn and returns what it panicked with, "" if nothing.
func panicOf(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestDNSOutOfOrderAndDuplicates: a DNS row that does not extend its
// site's history — a duplicate of its last round or an earlier round,
// at a dense id and at an overflow id — is a caller bug for the
// writers and bad input for Load. AddDNS and Flush panic naming the
// vantage, the site, the round and where the history ends, and record
// nothing; Load fails naming dns.csv and the row, whether the row sits
// in its site's run of rows or comes back to the site after another.
// (The binary decoders' rejections are in the corruption tests.)
func TestDNSOutOfOrderAndDuplicates(t *testing.T) {
	for _, c := range orderCases() {
		t.Run(c.name, func(t *testing.T) {
			db := orderTestDB()
			before := db.DNS("penn")
			if got := panicOf(func() { db.AddDNS("penn", c.row) }); got != "store: AddDNS: "+c.message() {
				t.Errorf("AddDNS panicked with %q, want %q", got, "store: AddDNS: "+c.message())
			}
			var b Batch
			b.AddDNS(c.row)
			if got := panicOf(func() { db.Flush("penn", &b) }); got != "store: Flush: "+c.message() {
				t.Errorf("Flush panicked with %q, want %q", got, "store: Flush: "+c.message())
			}
			if after := db.DNS("penn"); !reflect.DeepEqual(after, before) {
				t.Errorf("a rejected row changed the history: %d rows, %d before", len(after), len(before))
			}

			// Within a Flush too: the batch carries the site's history
			// and then the row.
			fresh := NewDB()
			fresh.Reserve(64, 1<<20, 32)
			var hist Batch
			for r := 0; r < 5; r++ {
				hist.AddDNS(DNSRow{Site: c.row.Site, Round: r, HasA: true})
			}
			hist.AddDNS(c.row)
			if got := panicOf(func() { fresh.Flush("penn", &hist) }); got != "store: Flush: "+c.message() {
				t.Errorf("Flush of one batch panicked with %q, want %q", got, "store: Flush: "+c.message())
			}

			files := saveCSVBytes(t, orderTestDB())
			lines := strings.SplitAfter(string(files[dnsFile]), "\n")
			bad := fmt.Sprintf("penn,%d,%d,true,false,false\n", c.row.Site, c.row.Round)
			lastOfSite := 0
			for i, ln := range lines {
				if strings.HasPrefix(ln, fmt.Sprintf("penn,%d,", c.row.Site)) {
					lastOfSite = i
				}
			}
			for _, at := range []int{lastOfSite + 1, len(lines) - 1} {
				edited := slices.Insert(slices.Clone(lines), at, bad)
				dir := t.TempDir()
				writeFiles(t, dir, withFile(files, dnsFile, []byte(strings.Join(edited, ""))))
				want := fmt.Sprintf("store: %s row %d: %s", dnsFile, at, c.message())
				if _, err := Load(dir); err == nil || err.Error() != want {
					t.Errorf("Load with the row at line %d: %v, want %q", at, err, want)
				}
			}
		})
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
			var batch Batch
			for r := 0; r < 25; r++ {
				for k := alexa.SiteID(0); k < 200; k++ {
					id := base + k
					batch.AddDNS(DNSRow{Site: id, Round: r, HasA: true, HasAAAA: r > 10 && k%7 == 0})
				}
				for k := alexa.SiteID(0); k < 200; k += 50 {
					id := base + k
					batch.AddSite(CanonicalSite{Site: id, FirstRank: int(id) + 1, V4AS: 3, V6AS: -1})
					db.AddSample("penn", id, topo.V4, Sample{Round: r, MeanSpeed: 12, CIOK: true})
					db.AddSample("penn", 1<<20+id%512, topo.V6, Sample{Round: r, MeanSpeed: 9, CIOK: true})
				}
				db.Flush("penn", &batch)
				if r%10 == 0 {
					snap := db.Freeze()
					snap.Series(nil, "penn", base, topo.V4)
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
	var batch Batch
	batch.AddSite(CanonicalSite{Site: 3, FirstRank: 3, V4AS: 4, V6AS: -1})
	db.Flush("penn", &batch)
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
