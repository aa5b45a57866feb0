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
// at a dense id and at an overflow id — is a caller bug. AddDNS and
// Flush panic naming the vantage, the site, the round and where the
// history ends, and record nothing. (The binary decoders' rejections
// are in the corruption tests.)
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
		})
	}
}

// TestWritersRefuseRoundsOutsideCodec: the section codec carries rounds
// in [0, maxRound), so a row outside them could be saved but not
// loaded back. Each writer panics on one, naming the vantage, the site
// (or path key) and the round, and records nothing; the last round
// inside the bound round-trips through SaveBinary and Load, and a
// checkpoint segment continuing it, at mark round maxRound, loads.
func TestWritersRefuseRoundsOutsideCodec(t *testing.T) {
	date := time.Unix(0, 0).UTC()
	writers := []struct {
		name  string
		what  string
		write func(db *DB, round int)
	}{
		{"AddDNS", "site 3", func(db *DB, round int) { db.AddDNS("penn", DNSRow{Site: 3, Round: round, HasA: true}) }},
		{"Flush", "site 3", func(db *DB, round int) {
			var b Batch
			b.AddDNS(DNSRow{Site: 3, Round: round, HasA: true})
			db.Flush("penn", &b)
		}},
		{"AddSample", "site 3 family 1", func(db *DB, round int) {
			db.AddSample("penn", 3, topo.V6, Sample{Round: round, Date: date, PageBytes: 10, Downloads: 3})
		}},
		{"Flush", "site 3 family 1", func(db *DB, round int) {
			var b Batch
			b.AddSample(3, topo.V6, Sample{Round: round, Date: date, PageBytes: 10, Downloads: 3})
			db.Flush("penn", &b)
		}},
		{"AddPath", "path key (1,9)", func(db *DB, round int) { db.AddPath("penn", topo.V6, 9, round, []int{2, 9}) }},
	}
	for _, w := range writers {
		for _, round := range []int{-1, maxRound, maxRound + 1} {
			db := NewDB()
			db.Reserve(64, 1<<20, 32)
			want := fmt.Sprintf(`store: %s: vantage "penn" %s round %d outside [0, %d), the rounds a snapshot carries`, w.name, w.what, round, maxRound)
			if got := panicOf(func() { w.write(db, round) }); got != want {
				t.Errorf("%s at round %d panicked with %q, want %q", w.name, round, got, want)
			}
			if s, d, sa, p := db.Counts(); s+d+sa+p != 0 {
				t.Errorf("%s at round %d recorded rows: %v", w.name, round, db)
			}
		}
		db := NewDB()
		w.write(db, maxRound-1)
		base := filepath.Join(t.TempDir(), "last")
		if err := db.SaveBinary(base+BinaryExt, BinaryOptions{}); err != nil {
			t.Fatalf("%s at the last round: SaveBinary: %v", w.name, err)
		}
		back, err := Load(base)
		if err != nil {
			t.Fatalf("%s at the last round: Load: %v", w.name, err)
		}
		requireSameCSV(t, back, db)
		dir := t.TempDir()
		b := NewCheckpointBackend(dir)
		for _, site := range []alexa.SiteID{3, 4} {
			db.PutSite(SiteRow{Site: site, Host: alexa.HostName(site), FirstRank: 1, V4AS: 1, V6AS: -1})
			if err := commit(b, db, 1); err != nil {
				t.Fatalf("%s at the last round: checkpoint: %v", w.name, err)
			}
		}
		if newestIsBase(t, b) {
			t.Fatalf("%s at the last round: the second checkpoint is not a segment", w.name)
		}
		requireLoadsAs(t, dir, db)
	}
}

// TestWritersRefuseValuesOutsideCodec: a snapshot carries site ids in
// [0, 2^62), non-empty hosts, first ranks, page sizes, download counts,
// path destinations and path ASes in [0, 2^31-1], origin ASes in [-1,
// 2^31-2], the families V4 and V6, and sample dates Unix nanoseconds
// cover. Each writer panics on one bound crossed, naming the vantage
// (where the row has one), the site or path key, the field and the
// value, and records nothing. The extreme legal values round-trip
// through SaveBinary and Load unchanged, and one instant written in two
// zones is one sample date.
func TestWritersRefuseValuesOutsideCodec(t *testing.T) {
	const top = alexa.SiteID(snapAllSites - 1)
	date := time.Unix(0, 0).UTC()
	msg := func(writer, what, field string, value, lo, hi int64) string {
		return fmt.Sprintf("store: %s: %s %s %d outside [%d, %d], the values a snapshot carries", writer, what, field, value, lo, hi)
	}
	const topID = int64(top)
	putSite := func(row SiteRow) func(*DB) { return func(db *DB) { db.PutSite(row) } }
	flushSite := func(view CanonicalSite) func(*DB) {
		return func(db *DB) {
			var b Batch
			b.AddSite(view)
			db.Flush("penn", &b)
		}
	}
	flushDNS := func(id alexa.SiteID) func(*DB) {
		return func(db *DB) {
			var b Batch
			b.AddDNS(DNSRow{Site: id, Round: 0, HasA: true})
			db.Flush("penn", &b)
		}
	}
	addDNS := func(id alexa.SiteID) func(*DB) {
		return func(db *DB) { db.AddDNS("penn", DNSRow{Site: id, Round: 0, HasA: true}) }
	}
	addSample := func(id alexa.SiteID, fam topo.Family, s Sample) func(*DB) {
		return func(db *DB) { db.AddSample("penn", id, fam, s) }
	}
	flushSample := func(id alexa.SiteID, fam topo.Family, s Sample) func(*DB) {
		return func(db *DB) {
			var b Batch
			b.AddSample(id, fam, s)
			db.Flush("penn", &b)
		}
	}
	addPath := func(fam topo.Family, dst int, path ...int) func(*DB) {
		return func(db *DB) { db.AddPath("penn", fam, dst, 0, path) }
	}
	sample := Sample{Round: 0, Date: date, PageBytes: 10, Downloads: 3}
	with := func(edit func(*Sample)) Sample { s := sample; edit(&s); return s }
	site := SiteRow{Site: 3, Host: "h.example", FirstRank: 1, V4AS: 1, V6AS: -1}
	siteWith := func(edit func(*SiteRow)) SiteRow { r := site; edit(&r); return r }
	view := CanonicalSite{Site: 3, FirstRank: 1, V4AS: 1, V6AS: -1}
	viewWith := func(edit func(*CanonicalSite)) CanonicalSite { v := view; edit(&v); return v }
	const pennSite3 = `vantage "penn" site 3`
	pennSample := func(id int64, fam int) string { return fmt.Sprintf(`vantage "penn" site %d family %d`, id, fam) }
	pennPath := func(fam, dst int64) string { return fmt.Sprintf(`vantage "penn" path key (%d,%d)`, fam, dst) }
	cases := []struct {
		name  string
		write func(*DB)
		want  string
	}{
		{"PutSite id -1", putSite(siteWith(func(r *SiteRow) { r.Site = -1 })), msg("PutSite", "site -1", "id", -1, 0, topID)},
		{"PutSite id 2^62", putSite(siteWith(func(r *SiteRow) { r.Site = top + 1 })), msg("PutSite", fmt.Sprintf("site %d", topID+1), "id", topID+1, 0, topID)},
		{"PutSite empty host", putSite(siteWith(func(r *SiteRow) { r.Host = "" })), "store: PutSite: site 3 host empty, which a snapshot reads back as the canonical one"},
		{"PutSite first rank -1", putSite(siteWith(func(r *SiteRow) { r.FirstRank = -1 })), msg("PutSite", "site 3", "first_rank", -1, 0, maxField)},
		{"PutSite first rank 2^31", putSite(siteWith(func(r *SiteRow) { r.FirstRank = maxField + 1 })), msg("PutSite", "site 3", "first_rank", maxField+1, 0, maxField)},
		{"PutSite v4 AS -2", putSite(siteWith(func(r *SiteRow) { r.V4AS = -2 })), msg("PutSite", "site 3", "v4_as", -2, -1, maxField-1)},
		{"PutSite v4 AS 2^31-1", putSite(siteWith(func(r *SiteRow) { r.V4AS = maxField })), msg("PutSite", "site 3", "v4_as", maxField, -1, maxField-1)},
		{"PutSite v6 AS -2", putSite(siteWith(func(r *SiteRow) { r.V6AS = -2 })), msg("PutSite", "site 3", "v6_as", -2, -1, maxField-1)},
		{"PutSite v6 AS 2^31-1", putSite(siteWith(func(r *SiteRow) { r.V6AS = maxField })), msg("PutSite", "site 3", "v6_as", maxField, -1, maxField-1)},
		{"Flush site id -1", flushSite(viewWith(func(v *CanonicalSite) { v.Site = -1 })), msg("Flush", `vantage "penn" site -1`, "id", -1, 0, topID)},
		{"Flush site id 2^62", flushSite(viewWith(func(v *CanonicalSite) { v.Site = top + 1 })), msg("Flush", fmt.Sprintf(`vantage "penn" site %d`, topID+1), "id", topID+1, 0, topID)},
		{"Flush first rank -1", flushSite(viewWith(func(v *CanonicalSite) { v.FirstRank = -1 })), msg("Flush", pennSite3, "first_rank", -1, 0, maxField)},
		{"Flush first rank 2^31", flushSite(viewWith(func(v *CanonicalSite) { v.FirstRank = maxField + 1 })), msg("Flush", pennSite3, "first_rank", maxField+1, 0, maxField)},
		{"Flush v4 AS -2", flushSite(viewWith(func(v *CanonicalSite) { v.V4AS = -2 })), msg("Flush", pennSite3, "v4_as", -2, -1, maxField-1)},
		{"Flush v4 AS 2^31-1", flushSite(viewWith(func(v *CanonicalSite) { v.V4AS = maxField })), msg("Flush", pennSite3, "v4_as", maxField, -1, maxField-1)},
		{"Flush v6 AS -2", flushSite(viewWith(func(v *CanonicalSite) { v.V6AS = -2 })), msg("Flush", pennSite3, "v6_as", -2, -1, maxField-1)},
		{"Flush v6 AS 2^31-1", flushSite(viewWith(func(v *CanonicalSite) { v.V6AS = maxField })), msg("Flush", pennSite3, "v6_as", maxField, -1, maxField-1)},
		{"Flush overflow first rank -1", flushSite(viewWith(func(v *CanonicalSite) { v.Site, v.FirstRank = 500, -1 })), msg("Flush", `vantage "penn" site 500`, "first_rank", -1, 0, maxField)},
		{"Flush DNS id -1", flushDNS(-1), msg("Flush", `vantage "penn" site -1`, "id", -1, 0, topID)},
		{"Flush DNS id 2^62", flushDNS(top + 1), msg("Flush", fmt.Sprintf(`vantage "penn" site %d`, topID+1), "id", topID+1, 0, topID)},
		{"AddDNS id -1", addDNS(-1), msg("AddDNS", `vantage "penn" site -1`, "id", -1, 0, topID)},
		{"AddDNS id 2^62", addDNS(top + 1), msg("AddDNS", fmt.Sprintf(`vantage "penn" site %d`, topID+1), "id", topID+1, 0, topID)},
		{"AddSample id -1", addSample(-1, topo.V4, sample), msg("AddSample", pennSample(-1, 0), "id", -1, 0, topID)},
		{"AddSample id 2^62", addSample(top+1, topo.V4, sample), msg("AddSample", pennSample(topID+1, 0), "id", topID+1, 0, topID)},
		{"AddSample family 2", addSample(3, 2, sample), msg("AddSample", pennSample(3, 2), "family", 2, 0, 1)},
		{"AddSample page bytes -1", addSample(3, topo.V6, with(func(s *Sample) { s.PageBytes = -1 })), msg("AddSample", pennSample(3, 1), "page_bytes", -1, 0, maxField)},
		{"AddSample page bytes 2^31", addSample(3, topo.V6, with(func(s *Sample) { s.PageBytes = maxField + 1 })), msg("AddSample", pennSample(3, 1), "page_bytes", maxField+1, 0, maxField)},
		{"AddSample downloads -1", addSample(3, topo.V6, with(func(s *Sample) { s.Downloads = -1 })), msg("AddSample", pennSample(3, 1), "downloads", -1, 0, maxField)},
		{"AddSample downloads 2^31", addSample(3, topo.V6, with(func(s *Sample) { s.Downloads = maxField + 1 })), msg("AddSample", pennSample(3, 1), "downloads", maxField+1, 0, maxField)},
		{"AddSample date before 1678", addSample(3, topo.V6, with(func(s *Sample) { s.Date = minDate.Add(-1) })), ""},
		{"AddSample date after 2262", addSample(3, topo.V6, with(func(s *Sample) { s.Date = maxDate.Add(1) })), ""},
		{"Flush sample id -1", flushSample(-1, topo.V4, sample), msg("Flush", pennSample(-1, 0), "id", -1, 0, topID)},
		{"Flush sample family 2", flushSample(3, 2, sample), msg("Flush", pennSample(3, 2), "family", 2, 0, 1)},
		{"Flush sample page bytes 2^31", flushSample(3, topo.V6, with(func(s *Sample) { s.PageBytes = maxField + 1 })), msg("Flush", pennSample(3, 1), "page_bytes", maxField+1, 0, maxField)},
		{"Flush sample downloads -1", flushSample(3, topo.V6, with(func(s *Sample) { s.Downloads = -1 })), msg("Flush", pennSample(3, 1), "downloads", -1, 0, maxField)},
		{"Flush sample date before 1678", flushSample(3, topo.V6, with(func(s *Sample) { s.Date = minDate.Add(-1) })), ""},
		{"AddPath family 2", addPath(2, 9, 2, 9), msg("AddPath", pennPath(2, 9), "family", 2, 0, 1)},
		{"AddPath dst -1", addPath(topo.V6, -1, 2), msg("AddPath", pennPath(1, -1), "dst", -1, 0, maxField)},
		{"AddPath dst 2^31", addPath(topo.V6, maxField+1, 2), msg("AddPath", pennPath(1, maxField+1), "dst", maxField+1, 0, maxField)},
		{"AddPath AS -1", addPath(topo.V6, 9, 2, -1, 9), msg("AddPath", pennPath(1, 9), "path AS", -1, 0, maxField)},
		{"AddPath AS 2^31", addPath(topo.V6, 9, 2, maxField+1), msg("AddPath", pennPath(1, 9), "path AS", maxField+1, 0, maxField)},
	}
	for _, c := range cases {
		db := NewDB()
		db.Reserve(64, 1<<20, 32)
		got := panicOf(func() { c.write(db) })
		if c.want == "" { // a date: the message names the date and the span
			c.want = "store: " + strings.Fields(c.name)[0] + ": " + pennSample(3, 1) + " date "
			if !strings.HasPrefix(got, c.want) || !strings.HasSuffix(got, "the dates a snapshot carries") {
				t.Errorf("%s panicked with %q, want %q… naming the span", c.name, got, c.want)
				continue
			}
		} else if got != c.want {
			// A writer that failed past its checks may hold a lock.
			t.Errorf("%s panicked with %q, want %q", c.name, got, c.want)
			continue
		}
		if s, d, sa, p := db.Counts(); s+d+sa+p != 0 {
			t.Errorf("%s recorded rows: %v", c.name, db)
		}
	}

	// The extreme legal values, and one instant in two zones.
	db := NewDB()
	db.Reserve(64, 1<<20, 32)
	db.PutSite(SiteRow{Site: top, Host: "top.example", FirstRank: maxField, V4AS: maxField - 1, V6AS: -1})
	db.PutSite(SiteRow{Site: 0, Host: "zero.example", FirstRank: 0, V4AS: -1, V6AS: maxField - 1})
	var b Batch
	b.AddSite(CanonicalSite{Site: 5, FirstRank: maxField, V4AS: maxField - 1, V6AS: maxField - 1})
	b.AddSite(CanonicalSite{Site: top - 1, FirstRank: 0, V4AS: -1, V6AS: -1})
	b.AddDNS(DNSRow{Site: top - 1, Round: 0, HasA: true})
	db.Flush("penn", &b)
	db.AddDNS("penn", DNSRow{Site: top, Round: 0, HasA: true, HasAAAA: true})
	at := time.Date(2011, 6, 8, 12, 0, 0, 0, time.UTC)
	want := []Sample{
		{Round: 0, Date: maxDate.UTC(), PageBytes: maxField, Downloads: maxField, MeanSpeed: 1, CIOK: true},
		{Round: 1, Date: minDate.UTC(), PageBytes: 0, Downloads: 0, MeanSpeed: 2},
		{Round: 2, Date: at, PageBytes: 1, Downloads: maxField, MeanSpeed: 3},
		{Round: 3, Date: at, PageBytes: 1, Downloads: 1, MeanSpeed: 4, CIOK: true},
	}
	for i, s := range want {
		if i == 3 {
			s.Date = at.In(time.FixedZone("CEST", 2*3600))
		}
		db.AddSample("penn", top, topo.V6, s)
	}
	db.AddPath("penn", topo.V6, maxField, 0, []int{0, maxField})
	base := filepath.Join(t.TempDir(), "extremes")
	if err := db.SaveBinary(base+BinaryExt, BinaryOptions{Compress: true}); err != nil {
		t.Fatal(err)
	}
	back, err := Load(base)
	if err != nil {
		t.Fatalf("the extreme legal values do not load: %v", err)
	}
	requireSameCSV(t, back, db)
	if !bytes.Equal(snapshotBytes(t, back), snapshotBytes(t, db)) {
		t.Fatal("the extreme legal values do not round-trip")
	}
	if got := back.Freeze().Series(nil, "penn", top, topo.V6); !reflect.DeepEqual(got, want) {
		t.Fatalf("samples after the round trip:\n got %+v\nwant %+v", got, want)
	}
	var section wbuf
	back.appendSamples(&section, "penn", 0, snapAllSites, 0)
	if n := section.b[0]; n != 3 {
		t.Fatalf("the samples section lists %d dates, want 3: one instant in two zones is one date", n)
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
			db.AddSample("penn", id, topo.V4, Sample{Date: sampleDate, Round: r, MeanSpeed: float64(r) + 1, CIOK: true})
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
// follow checkReservedColumns' rule, and every slot not holding a
// stored site must be empty (no site row, no DNS history, no sample
// series).
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

// checkReservedColumns asserts that every site column of db spans
// exactly its reservation, that a vantage's DNS column over a range is
// empty until its stripe's first write into the range and exactly the
// reserved length after it, that no in-range id sits in an overflow
// map, and that every slot whose id is not in stored is empty. Every
// id in stored was written at every vantage, with DNS rows and samples
// of both families.
func checkReservedColumns(t *testing.T, name string, db *DB, stored map[alexa.SiteID]bool) {
	t.Helper()
	res := db.res
	ranges := []struct {
		base alexa.SiteID
		n    int
	}{{0, res.main}, {res.extBase, res.ext}}
	inRange := func(id alexa.SiteID) bool { table, _ := res.locate(id); return table >= 0 }
	var written [2][shards]bool // a stored id lies in the range and stripe
	for id := range stored {
		if table, _ := res.locate(id); table >= 0 {
			written[table][uint64(id)&(shards-1)] = true
		}
	}
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
			d := &vt.dns[i]
			for id := range d.over {
				if inRange(id) {
					t.Fatalf("%s: %s DNS history of %d left in the overflow map", name, v, id)
				}
			}
			for table, hist := range [][]dnsHist{d.main, d.ext} {
				n := 0
				if written[table][i] {
					n = slotsFor(ranges[table].n)
				}
				if len(hist) != n {
					t.Fatalf("%s: %s shard %d table %d DNS column %d long, want %d (written: %v)", name, v, i, table,
						len(hist), n, written[table][i])
				}
				for slot := 0; slot < n; slot++ {
					id := ranges[table].base + alexa.SiteID(slot<<shardBits+i)
					if !stored[id] && hist[slot] != (dnsHist{}) {
						t.Fatalf("%s: %s empty slot of id %d holds data", name, v, id)
					}
				}
			}
		}
	}
}

// TestVantageColumnsAllocatedOnFirstWrite pins the allocation rule for
// a vantage's dense DNS columns. Penn writes DNS rows and v6 samples in
// both ranges, seattle in the main range only, and no id lies in
// stripe 0. Seattle holds no extended DNS column in any stripe; penn
// holds exactly the reserved length in each stripe it wrote and nothing
// in the others. A sample stripe holds exactly the series written to
// it. The rows, all in stripes other than 0, survive ForEachDNS,
// SaveBinary then Load, a checkpoint chain and MergeShard.
func TestVantageColumnsAllocatedOnFirstWrite(t *testing.T) {
	const extBase alexa.SiteID = 1 << 20
	const mainIDs, extIDs = 200, 100
	mainSites := []alexa.SiteID{3, 21, 37, 150, 199}
	extSites := []alexa.SiteID{extBase + 5, extBase + 22, extBase + 99}
	writes := map[Vantage][]alexa.SiteID{
		"penn":    append(slices.Clone(mainSites), extSites...),
		"seattle": mainSites,
	}
	db := NewDB()
	db.Reserve(mainIDs, extBase, extIDs)
	wantDNS := make(map[Vantage][]DNSRow)
	wantSeries := make(map[Vantage]map[alexa.SiteID][]Sample)
	write := func(rounds ...int) {
		for _, v := range []Vantage{"penn", "seattle"} {
			if wantSeries[v] == nil {
				wantSeries[v] = make(map[alexa.SiteID][]Sample)
			}
			for _, id := range writes[v] {
				db.PutSite(SiteRow{Site: id, Host: alexa.HostName(id), FirstRank: int(id%1000) + 1, V4AS: 1, V6AS: 2})
				for _, r := range rounds {
					row := DNSRow{Site: id, Round: r, HasA: true, HasAAAA: r >= 2, Identical: r%3 == 0}
					db.AddDNS(v, row)
					wantDNS[v] = append(wantDNS[v], row)
					s := Sample{Round: r, Date: sampleDate.AddDate(0, 0, 7*r), PageBytes: 900 + r, Downloads: 3, MeanSpeed: float64(id%50) + 0.5, CIOK: true}
					db.AddSample(v, id, topo.V6, s)
					wantSeries[v][id] = append(wantSeries[v][id], s)
				}
			}
			sort.SliceStable(wantDNS[v], func(i, j int) bool { return wantDNS[v][i].Site < wantDNS[v][j].Site })
		}
	}
	requireRows := func(what string, got *DB) {
		t.Helper()
		for v, want := range wantDNS {
			if rows := got.DNS(v); !reflect.DeepEqual(rows, want) {
				t.Fatalf("%s: %s DNS rows\n%+v\nwant\n%+v", what, v, rows, want)
			}
			n := 0
			got.Freeze().ForEachSeries(v, func(site alexa.SiteID, fam topo.Family, series []Sample) {
				n++
				if fam != topo.V6 || !reflect.DeepEqual(series, wantSeries[v][site]) {
					t.Fatalf("%s: %s series (%d, %d) = %+v, want %+v", what, v, site, fam, series, wantSeries[v][site])
				}
			})
			if n != len(wantSeries[v]) {
				t.Fatalf("%s: %s has %d series, want %d", what, v, n, len(wantSeries[v]))
			}
		}
	}
	requireColumns := func(what string, got *DB) {
		t.Helper()
		for v, ids := range writes {
			var wrote [2][shards]bool
			for _, id := range ids {
				table, _ := got.res.locate(id)
				wrote[table][uint64(id)&(shards-1)] = true
			}
			vt := got.lookup(v)
			for i := range vt.dns {
				d, s := &vt.dns[i], &vt.samples[i]
				series := 0
				for table, hist := range [][]dnsHist{d.main, d.ext} {
					n := 0
					if wrote[table][i] {
						n = slotsFor([]int{mainIDs, extIDs}[table])
					}
					if len(hist) != n {
						t.Fatalf("%s: %s stripe %d table %d: DNS column %d long, want %d", what, v, i, table, len(hist), n)
					}
				}
				for _, id := range ids {
					if uint64(id)&(shards-1) == uint64(i) {
						series++
					}
				}
				if len(d.over) != 0 || len(s.series) != series || len(s.index) != series {
					t.Fatalf("%s: %s stripe %d holds %d DNS overflow histories and %d series (%d indexed), want 0 and %d",
						what, v, i, len(d.over), len(s.series), len(s.index), series)
				}
			}
		}
	}

	dir := t.TempDir()
	b := NewCheckpointBackend(dir)
	write(0, 1)
	if err := commit(b, db, 1); err != nil {
		t.Fatal(err)
	}
	write(2, 3, 4)
	if err := commit(b, db, 4); err != nil {
		t.Fatal(err)
	}
	if newestIsBase(t, b) {
		t.Fatal("the second checkpoint is a base, want a segment")
	}
	requireColumns("live", db)
	requireRows("live", db)
	var expanded []DNSRow
	db.ForEachDNSRun("penn", func(row DNSRow, n int) {
		for k := 0; k < n; k++ {
			expanded = append(expanded, row)
			row.Round++
		}
	})
	if !reflect.DeepEqual(expanded, wantDNS["penn"]) {
		t.Fatalf("ForEachDNSRun's penn runs expand to\n%+v\nwant\n%+v", expanded, wantDNS["penn"])
	}

	path := filepath.Join(t.TempDir(), "db"+BinaryExt)
	if err := db.SaveBinary(path, BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(strings.TrimSuffix(path, BinaryExt))
	if err != nil {
		t.Fatal(err)
	}
	requireColumns("SaveBinary, Load", loaded)
	requireRows("SaveBinary, Load", loaded)
	chained, _ := loadNewest(t, dir)
	requireColumns("checkpoint chain", chained)
	requireRows("checkpoint chain", chained)

	merged := NewDB()
	merged.Reserve(mainIDs, extBase, extIDs)
	for _, rg := range [][2]alexa.SiteID{{0, mainIDs}, {extBase, extBase + extIDs}} {
		payload := encodeSection(t, db, ShardSites, "", rg[0], rg[1])
		if err := merged.MergeShard(rg[0], rg[1], ShardSites, "", payload); err != nil {
			t.Fatal(err)
		}
		for v := range writes {
			for _, section := range []byte{ShardDNS, ShardSamples} {
				payload := encodeSection(t, db, section, v, rg[0], rg[1])
				if err := merged.MergeShard(rg[0], rg[1], section, v, payload); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	requireColumns("MergeShard", merged)
	requireRows("MergeShard", merged)
}

// TestConcurrentFirstWritesAllocateColumns races the first writes into
// unallocated columns: each goroutine owns one slot in every stripe of
// both ranges, so all of them contend to allocate each stripe's DNS
// columns and to mint its sample series, through Flush, AddDNS and
// AddSample, while readers walk the tables. Every DNS row must land in
// a dense column of the full reserved length, and every series once.
// Run under -race (CI's -cpu 1,4 line matches Concurrent).
func TestConcurrentFirstWritesAllocateColumns(t *testing.T) {
	const extBase alexa.SiteID = 1 << 20
	const workers, rounds = 12, 3
	db := NewDB()
	db.Reserve(workers*shards, extBase, workers*shards)
	vantages := []Vantage{"penn", "seattle"}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			var ids []alexa.SiteID
			for i := alexa.SiteID(0); i < shards; i++ {
				slot := alexa.SiteID(w) * shards
				ids = append(ids, slot+i, extBase+slot+i)
			}
			batch := NewBatch(len(ids))
			for r := 0; r < rounds; r++ {
				for _, v := range vantages {
					for _, id := range ids {
						row := DNSRow{Site: id, Round: r, HasA: true, HasAAAA: r > 0}
						if w%2 == 0 {
							batch.AddSite(CanonicalSite{Site: id, FirstRank: int(id%1000) + 1, V4AS: 1, V6AS: -1})
							batch.AddDNS(row)
						} else {
							db.AddDNS(v, row)
						}
						db.AddSample(v, id, topo.Family(w%2), Sample{Round: r, Date: sampleDate, PageBytes: 10, Downloads: 2, MeanSpeed: 1, CIOK: true})
					}
					db.Flush(v, batch)
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	stop := make(chan struct{})
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			db.DNSStats("penn")
			db.ForEachDNSRun("seattle", func(DNSRow, int) {})
			db.Freeze()
		}
	}()
	close(start)
	wg.Wait()
	close(stop)
	readers.Wait()

	want := workers * shards * 2 * rounds
	for _, v := range vantages {
		if rows, _, sites := db.DNSStats(v); rows != want || sites != workers*shards*2 {
			t.Fatalf("%s: %d DNS rows over %d sites, want %d over %d", v, rows, sites, want, workers*shards*2)
		}
		if got := len(db.DNS(v)); got != want {
			t.Fatalf("%s: %d expanded DNS rows, want %d", v, got, want)
		}
		n := 0
		db.Freeze().ForEachSeries(v, func(alexa.SiteID, topo.Family, []Sample) { n++ })
		if n != workers*shards*2 {
			t.Fatalf("%s: %d sample series, want %d", v, n, workers*shards*2)
		}
		vt := db.lookup(v)
		for i := range vt.dns {
			d := &vt.dns[i]
			if len(d.main) != workers || len(d.ext) != workers {
				t.Fatalf("%s stripe %d: DNS columns %d and %d long, want %d", v, i, len(d.main), len(d.ext), workers)
			}
			if len(d.over) != 0 {
				t.Fatalf("%s stripe %d holds in-range ids in its overflow map", v, i)
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
					db.AddSample("penn", id, topo.V4, Sample{Date: sampleDate, Round: r, MeanSpeed: 12, CIOK: true})
					db.AddSample("penn", 1<<20+id%512, topo.V6, Sample{Date: sampleDate, Round: r, MeanSpeed: 9, CIOK: true})
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

// TestDecodedSeriesSizedAtLength: a series the section decoder mints
// (Load, a checkpoint segment's new series, MergeShard) is allocated at
// exactly the samples it decodes, and a series the monitor's Flush
// mints grows by append, holding at most twice its samples in slots.
func TestDecodedSeriesSizedAtLength(t *testing.T) {
	const extBase alexa.SiteID = 1 << 20
	const mainIDs, extIDs = 200, 100
	early := []alexa.SiteID{3, 21, 150, extBase + 5, 5000} // 5000 lies in no range: an overflow series
	late := []alexa.SiteID{37, 199, extBase + 22}
	all := append(slices.Clone(early), late...)
	dense := slices.DeleteFunc(slices.Clone(all), func(id alexa.SiteID) bool { return id == 5000 })
	db := NewDB()
	db.Reserve(mainIDs, extBase, extIDs)
	write := func(ids []alexa.SiteID, rounds ...int) {
		for _, r := range rounds {
			var b Batch
			for _, id := range ids {
				s := Sample{Round: r, Date: sampleDate.AddDate(0, 0, 7*r), PageBytes: 900 + r, Downloads: 3, MeanSpeed: float64(id%50) + 0.5, CIOK: true}
				b.AddSample(id, topo.V4, s)
				b.AddSample(id, topo.V6, s)
			}
			db.Flush("penn", &b)
		}
	}
	exactly := func(n, slots int) bool { return slots == n }
	requireSized := func(what string, got *DB, ids []alexa.SiteID, fits func(n, slots int) bool) {
		t.Helper()
		want := make(map[siteFamKey]bool)
		for _, id := range ids {
			want[siteFamKey{id, topo.V4}], want[siteFamKey{id, topo.V6}] = true, true
		}
		n := 0
		vt := got.lookup("penn")
		for i := range vt.samples {
			sh := &vt.samples[i]
			for k, s := range sh.series {
				if !want[sh.owner[k]] {
					continue
				}
				n++
				if !fits(len(s), cap(s)) {
					t.Errorf("%s: series %+v holds %d samples in %d slots", what, sh.owner[k], len(s), cap(s))
				}
			}
		}
		if n != len(want) {
			t.Fatalf("%s: found %d of %d series", what, n, len(want))
		}
	}

	dir := t.TempDir()
	b := NewCheckpointBackend(dir)
	write(early, 0, 1)
	if err := commit(b, db, 1); err != nil {
		t.Fatal(err)
	}
	write(early, 2, 3)
	write(late, 2, 3)
	if err := commit(b, db, 3); err != nil {
		t.Fatal(err)
	}
	if newestIsBase(t, b) {
		t.Fatal("the second checkpoint is a base, want a segment")
	}
	write(all, 4, 5, 6)
	requireSized("Flush", db, all, func(n, slots int) bool { return slots <= 2*n })

	path := filepath.Join(t.TempDir(), "db"+BinaryExt)
	if err := db.SaveBinary(path, BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(strings.TrimSuffix(path, BinaryExt))
	if err != nil {
		t.Fatal(err)
	}
	requireSized("Load", loaded, all, exactly)
	chained, _ := loadNewest(t, dir)
	requireSized("segment", chained, late, exactly)

	merged := NewDB()
	merged.Reserve(mainIDs, extBase, extIDs)
	for _, rg := range [][2]alexa.SiteID{{0, mainIDs}, {extBase, extBase + extIDs}} {
		if err := merged.MergeShard(rg[0], rg[1], ShardSamples, "penn", encodeSection(t, db, ShardSamples, "penn", rg[0], rg[1])); err != nil {
			t.Fatal(err)
		}
	}
	requireSized("MergeShard", merged, dense, exactly)
}
