package store

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// This file pins the CSV export to encoding/csv: Save's bytes against
// a reference encoder that builds a []string per row and hands it to a
// csv.Writer. It also reads exports back with a reference loader that
// parses every record through a csv.Reader, so that adversarial CSV
// can describe the databases the product round trip (SaveBinary, then
// Load) must carry unchanged.

// awkwardText holds strings that exercise encoding/csv's quoting rule:
// commas, quotes, CR, LF, CRLF, leading Unicode spaces, Postgres's
// `\.` and non-ASCII text. (A host is never empty; the empty vantage
// name below covers the empty field.)
var awkwardText = []string{
	"plain.example", "com,ma.example", `quo"te.example`, `"`, `""`,
	"cr\rcr", "lf\nlf", "crlf\r\ncrlf", "trailing-cr\r", " leading-space", "\ttab",
	"\u00a0nbsp", "\u0085nel", "inner space", `\.`, `\.x`,
	"bücher.example", "例え.テスト", ",", "\n",
}

// awkwardVantages are vantage names drawn from the same classes,
// the empty string among them.
var awkwardVantages = []Vantage{"penn", "se,attle", `q"uote`, "cr\r\nlf", " lead", "\u0085nel", `\.`, "", "例え"}

// awkwardDB builds a database whose hosts and vantage names are
// awkward text, on dense main and extended ids and overflow ids
// between and past the dense ranges. It also holds values at the low
// edges of what the writers take: first rank 0, the unknown origin AS
// -1, page size and downloads 0.
func awkwardDB() *DB {
	const extBase = alexa.SiteID(1 << 20)
	db := NewDB()
	db.Reserve(64, extBase, 32)
	ids := func(i int) []alexa.SiteID {
		return []alexa.SiteID{alexa.SiteID(i), extBase + alexa.SiteID(i), 5_000_000 + alexa.SiteID(i), alexa.SiteID(1000 + i)}
	}
	for i, host := range awkwardText {
		for k, id := range ids(i) {
			db.PutSite(SiteRow{Site: id, Host: host, FirstRank: i * k, V4AS: k - 1, V6AS: 64500 - i})
		}
	}
	for i := 40; i < 44; i++ { // canonical hosts, as the monitor writes them
		db.PutSite(SiteRow{Site: alexa.SiteID(i), Host: alexa.HostName(alexa.SiteID(i)), FirstRank: i, V4AS: 7, V6AS: -1})
	}
	date := time.Date(2011, 6, 8, 0, 0, 0, 0, time.UTC)
	for vi, v := range awkwardVantages {
		for i := 0; i < 6; i++ {
			for _, id := range ids(i) {
				for round := 0; round < 5; round++ {
					db.AddDNS(v, DNSRow{Site: id, Round: round, HasA: round != 3, HasAAAA: (round+i)%3 == 0, Identical: round%2 == 1})
				}
				db.AddDNS(v, DNSRow{Site: id, Round: 7, HasA: true}) // after a gap
				db.AddSample(v, id, topo.V6, Sample{Round: 1, Date: date.AddDate(0, 0, vi), PageBytes: 1000 + i, Downloads: 3, MeanSpeed: 1.0 / 3, CIOK: i%2 == 0})
				db.AddSample(v, id, topo.V4, Sample{Round: 1, Date: date, PageBytes: 0, Downloads: 0, MeanSpeed: 12345.678, CIOK: true})
			}
		}
		db.AddPath(v, topo.V4, 9, 0, []int{2, 5, 9})
		db.AddPath(v, topo.V4, 9, 3, []int{2, 7, 9})
		db.AddPath(v, topo.V6, 4, 1, nil)
		db.AddPath(v, topo.V6, 4, 2, []int{4})
	}
	return db
}

// referenceSave encodes db's four files as Save did with encoding/csv:
// strconv text for every number, a []string per row, a csv.Writer.
func referenceSave(t *testing.T, db *DB) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	write := func(name string, header []string, rows func(emit func(...string))) {
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		emit := func(fields ...string) {
			if err := w.Write(fields); err != nil {
				t.Fatal(err)
			}
		}
		emit(header...)
		rows(emit)
		w.Flush()
		if err := w.Error(); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	write(sitesFile, []string{"site", "host", "first_rank", "v4_as", "v6_as"}, func(emit func(...string)) {
		for _, r := range db.Sites() {
			emit(strconv.FormatInt(int64(r.Site), 10), r.Host,
				strconv.Itoa(r.FirstRank), strconv.Itoa(r.V4AS), strconv.Itoa(r.V6AS))
		}
	})
	write(dnsFile, []string{"vantage", "site", "round", "has_a", "has_aaaa", "identical"}, func(emit func(...string)) {
		for _, v := range db.Vantages() {
			for _, r := range db.DNS(v) {
				emit(string(v), strconv.FormatInt(int64(r.Site), 10), strconv.Itoa(r.Round),
					strconv.FormatBool(r.HasA), strconv.FormatBool(r.HasAAAA), strconv.FormatBool(r.Identical))
			}
		}
	})
	write(samplesFile, []string{"vantage", "site", "family", "round", "date", "page_bytes", "downloads", "mean_speed", "ci_ok"}, func(emit func(...string)) {
		for _, v := range db.Vantages() {
			db.ForEachSeries(v, func(site alexa.SiteID, fam topo.Family, ss []Sample) {
				for _, smp := range ss {
					emit(string(v), strconv.FormatInt(int64(site), 10), strconv.Itoa(int(fam)),
						strconv.Itoa(smp.Round), smp.Date.UTC().Format(time.RFC3339),
						strconv.Itoa(smp.PageBytes), strconv.Itoa(smp.Downloads),
						strconv.FormatFloat(smp.MeanSpeed, 'g', 17, 64), strconv.FormatBool(smp.CIOK))
				}
			})
		}
	})
	write(pathsFile, []string{"vantage", "family", "dst", "round", "path"}, func(emit func(...string)) {
		for _, v := range db.Vantages() {
			t := db.lookup(v)
			var keys []famDstKey
			for k := range t.paths {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				if keys[i].fam != keys[j].fam {
					return keys[i].fam < keys[j].fam
				}
				return keys[i].dst < keys[j].dst
			})
			for _, k := range keys {
				for _, snap := range t.paths[k] {
					parts := make([]string, len(snap.Path))
					for i, as := range snap.Path {
						parts[i] = strconv.Itoa(as)
					}
					emit(string(v), strconv.Itoa(int(k.fam)), strconv.Itoa(k.dst),
						strconv.Itoa(snap.Round), strings.Join(parts, ";"))
				}
			}
		}
	})
	return out
}

// TestSaveMatchesReferenceEncoder: Save's four files are byte-equal to
// encoding/csv's for a database of awkward hosts and vantage names.
func TestSaveMatchesReferenceEncoder(t *testing.T) {
	db := awkwardDB()
	got := saveCSVBytes(t, db)
	want := referenceSave(t, db)
	for _, name := range []string{sitesFile, dnsFile, samplesFile, pathsFile} {
		if !bytes.Equal(got[name], want[name]) {
			t.Errorf("%s differs from the encoding/csv reference:\n got %q\nwant %q", name, got[name], want[name])
		}
	}
	if !bytes.Contains(got[sitesFile], []byte(`"quo""te.example"`)) || !bytes.Contains(got[dnsFile], []byte("\n\" lead\",")) {
		t.Fatal("awkward fields were not quoted: the test database lost its point")
	}
}

// referenceLoad reads a directory of the four CSV files Save exports
// as a csv.Reader loop: every record of every file parsed by
// encoding/csv, the header compared with Save's, each field checked
// against its column's bounds, and rows applied one by one through the
// public write API. The bounds are what a snapshot is meant to carry:
// 32-bit counts, ranks and ASes, rounds below 2^30, site ids below
// 2^62 and dates in Unix nanoseconds. A DNS row must extend its site's
// history, which the loop tracks as the round each (vantage, site)
// history ends before.
func referenceLoad(dir string) (*DB, error) {
	db := NewDB()
	type vantageSite struct {
		v    Vantage
		site alexa.SiteID
	}
	dnsEnd := make(map[vantageSite]int32)
	flag := func(column, s string) (bool, error) {
		if s != "true" && s != "false" {
			return false, fmt.Errorf("%s %q is neither true nor false", column, s)
		}
		return s == "true", nil
	}
	// bounded parses an int field of column that must lie in [lo, hi].
	bounded := func(column, s string, lo, hi int) (int, error) {
		n, err := strconv.Atoi(s)
		if err == nil && (n < lo || n > hi) {
			err = fmt.Errorf("%s %d outside [%d, %d]", column, n, lo, hi)
		}
		return n, err
	}
	siteID := func(s string) (alexa.SiteID, error) {
		id, err := strconv.ParseInt(s, 10, 64)
		if err == nil && (id < 0 || id > 1<<62-1) {
			err = fmt.Errorf("site %d outside [0, %d]", id, int64(1<<62-1))
		}
		return alexa.SiteID(id), err
	}
	family := func(s string) (topo.Family, error) {
		fam, err := strconv.Atoi(s)
		if err == nil && fam != 0 && fam != 1 {
			err = fmt.Errorf("family %d is not 0 (IPv4) or 1 (IPv6)", fam)
		}
		return topo.Family(fam), err
	}
	const maxInt32, lastRound = 1<<31 - 1, 1<<30 - 1
	files := []struct {
		name   string
		header []string
		row    func(rec []string) error
	}{
		{sitesFile, []string{"site", "host", "first_rank", "v4_as", "v6_as"}, func(rec []string) error {
			site, err := siteID(rec[0])
			if err != nil {
				return err
			}
			if rec[1] == "" {
				return errors.New("host is empty")
			}
			var n [3]int
			for i, col := range []struct {
				name   string
				lo, hi int
			}{{"first_rank", 0, maxInt32}, {"v4_as", -1, maxInt32 - 1}, {"v6_as", -1, maxInt32 - 1}} {
				if n[i], err = bounded(col.name, rec[2+i], col.lo, col.hi); err != nil {
					return err
				}
			}
			db.PutSite(SiteRow{Site: site, Host: rec[1], FirstRank: n[0], V4AS: n[1], V6AS: n[2]})
			return nil
		}},
		{dnsFile, []string{"vantage", "site", "round", "has_a", "has_aaaa", "identical"}, func(rec []string) error {
			site, err := siteID(rec[1])
			if err != nil {
				return err
			}
			round, err := bounded("round", rec[2], 0, lastRound)
			if err != nil {
				return err
			}
			var b [3]bool
			for i, col := range []string{"has_a", "has_aaaa", "identical"} {
				if b[i], err = flag(col, rec[3+i]); err != nil {
					return err
				}
			}
			k := vantageSite{Vantage(rec[0]), site}
			if end, ok := dnsEnd[k]; ok && int32(round) < end {
				return errDNSOrder(k.v, k.site, int32(round), end)
			}
			dnsEnd[k] = int32(round) + 1
			db.AddDNS(k.v, DNSRow{Site: k.site, Round: round, HasA: b[0], HasAAAA: b[1], Identical: b[2]})
			return nil
		}},
		{samplesFile, []string{"vantage", "site", "family", "round", "date", "page_bytes", "downloads", "mean_speed", "ci_ok"}, func(rec []string) error {
			site, err := siteID(rec[1])
			if err != nil {
				return err
			}
			fam, err := family(rec[2])
			if err != nil {
				return err
			}
			round, err := bounded("round", rec[3], 0, lastRound)
			if err != nil {
				return err
			}
			date, err := time.Parse(time.RFC3339, rec[4])
			if err != nil {
				return err
			}
			if date.Before(time.Unix(0, math.MinInt64)) || date.After(time.Unix(0, math.MaxInt64)) {
				return fmt.Errorf("date %s outside the span Unix nanoseconds cover (1677-09-21 to 2262-04-11)", rec[4])
			}
			page, err := bounded("page_bytes", rec[5], 0, maxInt32)
			if err != nil {
				return err
			}
			dls, err := bounded("downloads", rec[6], 0, maxInt32)
			if err != nil {
				return err
			}
			speed, err := strconv.ParseFloat(rec[7], 64)
			if err != nil {
				return err
			}
			ciOK, err := flag("ci_ok", rec[8])
			if err != nil {
				return err
			}
			db.AddSample(Vantage(rec[0]), site, fam, Sample{
				Round: round, Date: date, PageBytes: page, Downloads: dls, MeanSpeed: speed, CIOK: ciOK,
			})
			return nil
		}},
		{pathsFile, []string{"vantage", "family", "dst", "round", "path"}, func(rec []string) error {
			fam, err := family(rec[1])
			if err != nil {
				return err
			}
			dst, err := bounded("dst", rec[2], 0, maxInt32)
			if err != nil {
				return err
			}
			round, err := bounded("round", rec[3], 0, lastRound)
			if err != nil {
				return err
			}
			var path []int
			if rec[4] != "" {
				for _, p := range strings.Split(rec[4], ";") {
					as, err := bounded("path AS", p, 0, maxInt32)
					if err != nil {
						return err
					}
					path = append(path, as)
				}
			}
			db.AddPath(Vantage(rec[0]), fam, dst, round, path)
			return nil
		}},
	}
	for _, file := range files {
		if err := referenceLoadFile(filepath.Join(dir, file.name), file.header, file.row); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// referenceLoadFile reads one file with a csv.Reader: the header
// check, then row for every later record.
func referenceLoadFile(path string, header []string, row func(rec []string) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	name := filepath.Base(path)
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	for i := 0; ; i++ {
		rec, err := r.Read()
		switch {
		case errors.Is(err, io.EOF) && i == 0:
			return fmt.Errorf("store: %s: no header, want %q", name, strings.Join(header, ","))
		case errors.Is(err, io.EOF):
			return nil
		case err != nil:
			return fmt.Errorf("store: %s: %w", name, err)
		case i == 0:
			if !slices.Equal(rec, header) {
				return fmt.Errorf("store: %s: header %q, want %q", name, strings.Join(rec, ","), strings.Join(header, ","))
			}
		case len(rec) != len(header):
			return fmt.Errorf("store: %s row %d has %d fields, want %d", name, i, len(rec), len(header))
		default:
			if err := row(rec); err != nil {
				return fmt.Errorf("store: %s row %d: %w", name, i, err)
			}
		}
	}
}

// writeFiles writes files into dir, an export directory.
func writeFiles(t testing.TB, dir string, files map[string][]byte) {
	t.Helper()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// withFile returns files with name's contents replaced.
func withFile(files map[string][]byte, name string, data []byte) map[string][]byte {
	out := make(map[string][]byte, len(files))
	for k, v := range files {
		out[k] = v
	}
	out[name] = data
	return out
}

// checkLoadAgrees reads the CSV directory in with referenceLoad and
// returns its error. A database the reference accepts is saved as the
// product saves one (SaveBinary, compressed) under saveDir and read
// back with Load: the snapshot must load, and the database Load
// returns must export (Save) the same bytes as the one the reference
// read.
func checkLoadAgrees(t testing.TB, in, saveDir string) error {
	t.Helper()
	want, err := referenceLoad(in)
	if err != nil {
		return err
	}
	base := filepath.Join(saveDir, SnapMain)
	if err := want.SaveBinary(base+BinaryExt, BinaryOptions{Compress: true}); err != nil {
		t.Fatalf("SaveBinary of a database within a snapshot's bounds: %v", err)
	}
	got, err := Load(base)
	if err != nil {
		t.Fatalf("Load of a snapshot SaveBinary wrote: %v", err)
	}
	for name, db := range map[string]*DB{"got": got, "want": want} {
		if err := db.Save(filepath.Join(saveDir, name)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{sitesFile, dnsFile, samplesFile, pathsFile} {
		g, err1 := os.ReadFile(filepath.Join(saveDir, "got", name))
		w, err2 := os.ReadFile(filepath.Join(saveDir, "want", name))
		if err := errors.Join(err1, err2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: the database Load read from the snapshot exports differently from the one saved:\n got %q\nwant %q", name, g, w)
		}
	}
	return nil
}

// loadAgrees is checkLoadAgrees on a fresh directory holding files.
func loadAgrees(t *testing.T, files map[string][]byte) error {
	t.Helper()
	dir := t.TempDir()
	writeFiles(t, dir, files)
	return checkLoadAgrees(t, dir, t.TempDir())
}

// csvLoadCase is hand-written contents for one file of an exported
// database (the others stay valid). want, when set, is the field error
// the reference loader must reject the file with, after the file and
// row: the value lies just past one of its bounds.
type csvLoadCase struct {
	name string
	file string
	data []byte
	want string
}

// csvLoadCases cover awkward CSV syntax — quoted fields mid-file, CRLF
// line ends, bare quotes, overlong lines — and the row errors around
// it, and each field bound.
func csvLoadCases(files map[string][]byte) []csvLoadCase {
	sites := string(files[sitesFile])
	dns := string(files[dnsFile])
	samples := string(files[samplesFile])
	paths := string(files[pathsFile])
	mid := func(s string) int { return strings.IndexByte(s[len(s)/2:], '\n') + len(s)/2 + 1 }
	insert := func(s, line string) []byte { i := mid(s); return []byte(s[:i] + line + s[i:]) }
	long := "penn,99," + strings.Repeat("1", 70000) + ",true,true,true\n"
	const date = "2011-06-08T00:00:00Z"
	sample := func(site, round, date, page, downloads string) []byte {
		return insert(samples, "penn,"+site+",0,"+round+","+date+","+page+","+downloads+",55.5,false\n")
	}
	return []csvLoadCase{
		{"quoted-host-mid-file", sitesFile, insert(sites, "77,\"quoted, host\",3,4,5\n"), ""},
		{"quoted-multiline-host", sitesFile, insert(sites, "77,\"two\nlines\",3,4,5\n"), ""},
		{"quoted-header", sitesFile, []byte(`"site",host,first_rank,v4_as,v6_as` + sites[strings.IndexByte(sites, '\n'):]), ""},
		{"crlf-file", dnsFile, []byte(strings.ReplaceAll(dns, "\n", "\r\n")), ""},
		{"crlf-last-line-only", dnsFile, []byte(dns[:len(dns)-1] + "\r\n"), ""},
		{"bare-quote-mid-file", dnsFile, insert(dns, "penn,5,1,tr\"ue,true,true\n"), ""},
		{"bare-quote-bad-row-first", dnsFile, insert(dns, "penn,x,1,true,true,true\npenn,5,1,\"tr\"ue,true,true\n"), ""},
		{"line-longer-than-buffer", dnsFile, insert(dns, long), ""},
		{"empty-lines", dnsFile, []byte(strings.ReplaceAll(dns, "\n", "\n\n")), ""},
		{"no-final-newline", dnsFile, []byte(strings.TrimSuffix(dns, "\n")), ""},
		{"header-only", dnsFile, []byte(dns[:strings.IndexByte(dns, '\n')+1]), ""},
		{"field-count", dnsFile, insert(dns, "penn,5,1,true,true\n"), ""},
		{"plus-sign-and-zeros", dnsFile, insert(dns, "penn,+0005,-0,true,false,true\n"), ""},
		{"int-overflow", dnsFile, insert(dns, "penn,99999999999999999999,1,true,true,true\n"), ""},
		{"out-of-order-row", dnsFile, []byte(dns + "penn,0,0,true,true,true\n"), ""},
		{"bad-family", samplesFile, []byte(strings.Replace(samples, "penn,0,0,", "penn,0,2,", 1)), "family 2 is not 0 (IPv4) or 1 (IPv6)"},
		{"bad-path", pathsFile, []byte(strings.Replace(paths, "2;5;9", "2;;9", 1)), ""},

		{"site-negative", sitesFile, insert(sites, "-5,h.example,3,4,5\n"), "site -5 outside [0, 4611686018427387903]"},
		{"site-past-snapshot-bound", sitesFile, insert(sites, "4611686018427387904,h.example,3,4,5\n"), "site 4611686018427387904 outside [0, 4611686018427387903]"},
		{"host-empty", sitesFile, insert(sites, "77,,3,4,5\n"), "host is empty"},
		{"first-rank-negative", sitesFile, insert(sites, "77,h.example,-3,4,5\n"), "first_rank -3 outside [0, 2147483647]"},
		{"first-rank-past-int32", sitesFile, insert(sites, "77,h.example,2147483648,4,5\n"), "first_rank 2147483648 outside [0, 2147483647]"},
		{"v4-as-below-unknown", sitesFile, insert(sites, "77,h.example,3,-2,5\n"), "v4_as -2 outside [-1, 2147483646]"},
		{"v4-as-past-int32", sitesFile, insert(sites, "77,h.example,3,2147483647,5\n"), "v4_as 2147483647 outside [-1, 2147483646]"},
		{"v6-as-below-unknown", sitesFile, insert(sites, "77,h.example,3,4,-2\n"), "v6_as -2 outside [-1, 2147483646]"},
		{"v6-as-past-int32", sitesFile, insert(sites, "77,h.example,3,4,2147483647\n"), "v6_as 2147483647 outside [-1, 2147483646]"},
		{"dns-site-negative", dnsFile, insert(dns, "penn,-5,1,true,true,true\n"), "site -5 outside [0, 4611686018427387903]"},
		{"dns-round-negative", dnsFile, insert(dns, "penn,77,-1,true,true,true\n"), "round -1 outside [0, 1073741823]"},
		{"dns-round-past-int32", dnsFile, insert(dns, "penn,77,4294967297,true,true,true\n"), "round 4294967297 outside [0, 1073741823]"},
		{"sample-site-negative", samplesFile, sample("-5", "1", date, "100", "3"), "site -5 outside [0, 4611686018427387903]"},
		{"sample-round-negative", samplesFile, sample("77", "-1", date, "100", "3"), "round -1 outside [0, 1073741823]"},
		{"sample-round-past-max", samplesFile, sample("77", "1073741824", date, "100", "3"), "round 1073741824 outside [0, 1073741823]"},
		{"sample-date-past-nanos", samplesFile, sample("77", "1", "2400-01-01T00:00:00Z", "100", "3"), "date 2400-01-01T00:00:00Z outside"},
		{"sample-date-before-nanos", samplesFile, sample("77", "1", "1600-01-01T00:00:00Z", "100", "3"), "date 1600-01-01T00:00:00Z outside"},
		{"page-negative", samplesFile, sample("77", "1", date, "-1", "3"), "page_bytes -1 outside [0, 2147483647]"},
		{"page-past-int32", samplesFile, sample("77", "1", date, "5000000000", "3"), "page_bytes 5000000000 outside [0, 2147483647]"},
		{"downloads-negative", samplesFile, sample("77", "1", date, "100", "-3"), "downloads -3 outside [0, 2147483647]"},
		{"downloads-into-ci-bit", samplesFile, sample("77", "1", date, "100", "2147483648"), "downloads 2147483648 outside [0, 2147483647]"},
		{"path-family", pathsFile, insert(paths, "penn,2,9,0,2;9\n"), "family 2 is not 0 (IPv4) or 1 (IPv6)"},
		{"path-dst-negative", pathsFile, insert(paths, "penn,0,-9,0,2;9\n"), "dst -9 outside [0, 2147483647]"},
		{"path-dst-past-int32", pathsFile, insert(paths, "penn,0,2147483648,0,2;9\n"), "dst 2147483648 outside [0, 2147483647]"},
		{"path-round-negative", pathsFile, insert(paths, "penn,0,77,-1,2;9\n"), "round -1 outside [0, 1073741823]"},
		{"path-round-past-max", pathsFile, insert(paths, "penn,0,77,1073741824,2;9\n"), "round 1073741824 outside [0, 1073741823]"},
		{"path-as-negative", pathsFile, insert(paths, "penn,0,77,0,2;-7;9\n"), "path AS -7 outside [0, 2147483647]"},
		{"path-as-past-int32", pathsFile, insert(paths, "penn,0,77,0,2;2147483648\n"), "path AS 2147483648 outside [0, 2147483647]"},
	}
}

// TestLoadAgreesWithCSVReader: for every exported database the
// csv.Reader reference reads from awkward or malformed CSV, Load of its
// snapshot returns a database that exports byte-equal. A case with a
// field error must be refused with it: the round trip is held to every
// value up to the reference's bounds.
func TestLoadAgreesWithCSVReader(t *testing.T) {
	files := saveCSVBytes(t, binarySampleDB())
	for _, tc := range csvLoadCases(files) {
		t.Run(tc.name, func(t *testing.T) {
			err := loadAgrees(t, withFile(files, tc.file, tc.data))
			prefix := "store: " + tc.file + " row "
			if tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), prefix) || !strings.Contains(err.Error(), ": "+tc.want)) {
				t.Errorf("error %v, want one starting %q and naming %q", err, prefix, tc.want)
			}
		})
	}
}

// loadCaseFiles orders the files for FuzzLoadCSV's file selector.
var loadCaseFiles = []string{sitesFile, dnsFile, samplesFile, pathsFile}

type csvFuzzSeed struct {
	name string
	file byte // index into loadCaseFiles
	data []byte
}

// csvFuzzSeeds are FuzzLoadCSV's seeds: each file of the sample
// database as saved, and every hand-written case short enough for the
// committed corpus.
func csvFuzzSeeds(files map[string][]byte) []csvFuzzSeed {
	var seeds []csvFuzzSeed
	for i, name := range loadCaseFiles {
		seeds = append(seeds, csvFuzzSeed{"golden-" + strings.TrimSuffix(name, ".csv"), byte(i), files[name]})
	}
	for _, tc := range csvLoadCases(files) {
		if len(tc.data) < 1<<12 {
			seeds = append(seeds, csvFuzzSeed{tc.name, byte(slices.Index(loadCaseFiles, tc.file)), tc.data})
		}
	}
	return seeds
}

// FuzzLoadCSV feeds arbitrary bytes to the csv.Reader reference loader
// as one of the four exported files, the other three valid: whatever
// database it reads must come back from Load of its snapshot exporting
// byte-equal.
func FuzzLoadCSV(f *testing.F) {
	files := saveCSVBytes(f, binarySampleDB())
	for _, s := range csvFuzzSeeds(files) {
		f.Add(s.file, s.data)
	}
	// The fuzz function runs one input at a time per process, so the
	// directories are reused rather than made per input.
	in, saveDir := f.TempDir(), f.TempDir()
	f.Fuzz(func(t *testing.T, file byte, data []byte) {
		writeFiles(t, in, withFile(files, loadCaseFiles[int(file)%len(loadCaseFiles)], data))
		checkLoadAgrees(t, in, saveDir)
	})
}
