package store

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
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

// This file pins the CSV product to encoding/csv: Save's bytes against
// a reference encoder that builds a []string per row and hands it to a
// csv.Writer, and Load's verdicts against a reference loader that
// reads every record through a csv.Reader.

// awkwardText holds strings that exercise encoding/csv's quoting rule:
// commas, quotes, CR, LF, CRLF, leading Unicode spaces, Postgres's
// `\.`, the empty string and non-ASCII text.
var awkwardText = []string{
	"plain.example", "com,ma.example", `quo"te.example`, `"`, `""`,
	"cr\rcr", "lf\nlf", "crlf\r\ncrlf", "trailing-cr\r", " leading-space", "\ttab",
	"\u00a0nbsp", "\u0085nel", "inner space", `\.`, `\.x`, "",
	"bücher.example", "例え.テスト", ",", "\n",
}

// awkwardVantages are vantage names drawn from the same classes.
var awkwardVantages = []Vantage{"penn", "se,attle", `q"uote`, "cr\r\nlf", " lead", "\u0085nel", `\.`, "", "例え"}

// awkwardDB builds a database whose hosts and vantage names are
// awkward text, on dense main and extended ids, overflow ids on both
// sides of the dense ranges (a negative one included) and negative
// ASes. Every string passes through norm first.
func awkwardDB(norm func(string) string) *DB {
	const extBase = alexa.SiteID(1 << 20)
	db := NewDB()
	db.Reserve(64, extBase, 32)
	ids := func(i int) []alexa.SiteID {
		return []alexa.SiteID{alexa.SiteID(i), extBase + alexa.SiteID(i), 5_000_000 + alexa.SiteID(i), -1 - alexa.SiteID(i)}
	}
	for i, host := range awkwardText {
		for k, id := range ids(i) {
			db.PutSite(SiteRow{Site: id, Host: norm(host), FirstRank: i * k, V4AS: -1 - k, V6AS: 64500 - i})
		}
	}
	for i := 40; i < 44; i++ { // canonical hosts, as the monitor writes them
		db.PutSite(SiteRow{Site: alexa.SiteID(i), Host: alexa.HostName(alexa.SiteID(i)), FirstRank: i, V4AS: 7, V6AS: -1})
	}
	date := time.Date(2011, 6, 8, 0, 0, 0, 0, time.UTC)
	for vi, rawV := range awkwardVantages {
		v := Vantage(norm(string(rawV)))
		for i := 0; i < 6; i++ {
			for _, id := range ids(i) {
				for round := 0; round < 5; round++ {
					db.AddDNS(v, DNSRow{Site: id, Round: round, HasA: round != 3, HasAAAA: (round+i)%3 == 0, Identical: round%2 == 1})
				}
				db.AddDNS(v, DNSRow{Site: id, Round: 7, HasA: true}) // after a gap
				db.AddSample(v, id, topo.V6, Sample{Round: 1, Date: date.AddDate(0, 0, vi), PageBytes: 1000 + i, Downloads: 3, MeanSpeed: 1.0 / 3, CIOK: i%2 == 0})
				db.AddSample(v, id, topo.V4, Sample{Round: 1, Date: date, PageBytes: -1, Downloads: 0, MeanSpeed: 12345.678, CIOK: true})
			}
		}
		db.AddPath(v, topo.V4, 9, 0, []int{2, 5, 9})
		db.AddPath(v, topo.V4, 9, 3, []int{2, -7, 9})
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

// referenceLoad is Load as a csv.Reader loop: every record of every
// file parsed by encoding/csv, the header compared with Save's, and
// rows applied one by one through the public write API. A DNS row must
// extend its site's history, which the loop tracks as the round each
// (vantage, site) history ends before.
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
	files := []struct {
		name   string
		header []string
		row    func(rec []string) error
	}{
		{sitesFile, []string{"site", "host", "first_rank", "v4_as", "v6_as"}, func(rec []string) error {
			site, err := strconv.ParseInt(rec[0], 10, 64)
			if err != nil {
				return err
			}
			var n [3]int
			for i := range n {
				if n[i], err = strconv.Atoi(rec[2+i]); err != nil {
					return err
				}
			}
			db.PutSite(SiteRow{Site: alexa.SiteID(site), Host: rec[1], FirstRank: n[0], V4AS: n[1], V6AS: n[2]})
			return nil
		}},
		{dnsFile, []string{"vantage", "site", "round", "has_a", "has_aaaa", "identical"}, func(rec []string) error {
			site, err := strconv.ParseInt(rec[1], 10, 64)
			if err != nil {
				return err
			}
			round, err := strconv.Atoi(rec[2])
			if err != nil {
				return err
			}
			var b [3]bool
			for i, col := range []string{"has_a", "has_aaaa", "identical"} {
				if b[i], err = flag(col, rec[3+i]); err != nil {
					return err
				}
			}
			k := vantageSite{Vantage(rec[0]), alexa.SiteID(site)}
			if end, ok := dnsEnd[k]; ok && int32(round) < end {
				return errDNSOrder(k.v, k.site, int32(round), end)
			}
			dnsEnd[k] = int32(round) + 1
			db.AddDNS(k.v, DNSRow{Site: k.site, Round: round, HasA: b[0], HasAAAA: b[1], Identical: b[2]})
			return nil
		}},
		{samplesFile, []string{"vantage", "site", "family", "round", "date", "page_bytes", "downloads", "mean_speed", "ci_ok"}, func(rec []string) error {
			site, err := strconv.ParseInt(rec[1], 10, 64)
			if err != nil {
				return err
			}
			fam, err := strconv.Atoi(rec[2])
			if err != nil {
				return err
			}
			if fam != 0 && fam != 1 {
				return fmt.Errorf("family %d is not 0 (IPv4) or 1 (IPv6)", fam)
			}
			round, err := strconv.Atoi(rec[3])
			if err != nil {
				return err
			}
			date, err := time.Parse(time.RFC3339, rec[4])
			if err != nil {
				return err
			}
			page, err := strconv.Atoi(rec[5])
			if err != nil {
				return err
			}
			dls, err := strconv.Atoi(rec[6])
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
			db.AddSample(Vantage(rec[0]), alexa.SiteID(site), topo.Family(fam), Sample{
				Round: round, Date: date, PageBytes: page, Downloads: dls, MeanSpeed: speed, CIOK: ciOK,
			})
			return nil
		}},
		{pathsFile, []string{"vantage", "family", "dst", "round", "path"}, func(rec []string) error {
			var n [3]int
			var err error
			for i := range n {
				if n[i], err = strconv.Atoi(rec[1+i]); err != nil {
					return err
				}
			}
			var path []int
			if rec[4] != "" {
				for _, p := range strings.Split(rec[4], ";") {
					as, err := strconv.Atoi(p)
					if err != nil {
						return err
					}
					path = append(path, as)
				}
			}
			db.AddPath(Vantage(rec[0]), topo.Family(n[0]), n[1], n[2], path)
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

// TestSaveMatchesReferenceEncoder: Save's four files are byte-equal to
// encoding/csv's for a database of awkward hosts and vantage names,
// and Load brings the database back — with CRLF inside a field read as
// LF, the one normalization csv.Reader applies to quoted fields.
func TestSaveMatchesReferenceEncoder(t *testing.T) {
	db := awkwardDB(func(s string) string { return s })
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

	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	lf := awkwardDB(func(s string) string { return strings.ReplaceAll(s, "\r\n", "\n") })
	gotBack, wantBack := saveCSVBytes(t, back), saveCSVBytes(t, lf)
	for _, name := range []string{sitesFile, dnsFile, samplesFile, pathsFile} {
		if !bytes.Equal(gotBack[name], wantBack[name]) {
			t.Errorf("%s did not round-trip through Load:\n got %q\nwant %q", name, gotBack[name], wantBack[name])
		}
	}
	s1, d1, sa1, p1 := back.Counts()
	s2, d2, sa2, p2 := db.Counts()
	if s1 != s2 || d1 != d2 || sa1 != sa2 || p1 != p2 {
		t.Fatalf("loaded counts (%d %d %d %d), saved (%d %d %d %d)", s1, d1, sa1, p1, s2, d2, sa2, p2)
	}
}

// writeFiles writes files into dir, a database directory.
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

// checkLoadAgrees loads the database directory in with Load and with
// referenceLoad: both must fail with the same error, or both succeed
// with databases whose Saves, written under saveDir, are byte-equal.
func checkLoadAgrees(t testing.TB, in, saveDir string) error {
	t.Helper()
	got, err := Load(in)
	want, refErr := referenceLoad(in)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("Load and the csv.Reader reference disagree:\n  Load: %v\n   ref: %v", err, refErr)
	}
	if err != nil {
		return err
	}
	gotDir, wantDir := filepath.Join(saveDir, "got"), filepath.Join(saveDir, "want")
	if err := got.Save(gotDir); err != nil {
		t.Fatal(err)
	}
	if err := want.Save(wantDir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{sitesFile, dnsFile, samplesFile, pathsFile} {
		g, err1 := os.ReadFile(filepath.Join(gotDir, name))
		w, err2 := os.ReadFile(filepath.Join(wantDir, name))
		if err := errors.Join(err1, err2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s: databases loaded by Load and the reference save differently:\n got %q\nwant %q", name, g, w)
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

// editField rewrites one field of a saved CSV file: row counts
// records after the header, col counts fields.
func editField(t *testing.T, data []byte, row, col int, value string) []byte {
	t.Helper()
	lines := strings.Split(string(data), "\n")
	fields := strings.Split(lines[row], ",")
	fields[col] = value
	lines[row] = strings.Join(fields, ",")
	return []byte(strings.Join(lines, "\n"))
}

// TestLoadRejectsNonCanonicalBooleans: Save writes booleans as true
// and false, and Load takes nothing else — no TRUE, 1, prefix or empty
// field silently reading as false.
func TestLoadRejectsNonCanonicalBooleans(t *testing.T) {
	files := saveCSVBytes(t, binarySampleDB())
	for _, tc := range []struct {
		file     string
		row, col int
		value    string
	}{
		{dnsFile, 2, 3, "TRUE"},
		{dnsFile, 5, 4, "1"},
		{dnsFile, 7, 5, "tru"},
		{dnsFile, 3, 3, ""},
		{samplesFile, 4, 8, "True"},
		{samplesFile, 1, 8, "f"},
	} {
		err := loadAgrees(t, withFile(files, tc.file, editField(t, files[tc.file], tc.row, tc.col, tc.value)))
		want := fmt.Sprintf("store: %s row %d: ", tc.file, tc.row)
		if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), strconv.Quote(tc.value)) {
			t.Errorf("%s row %d field %d = %q: error %v, want one starting %q and quoting the field", tc.file, tc.row, tc.col, tc.value, err, want)
		}
	}
}

// TestLoadRequiresSaveHeaders: each file's header must be the one Save
// writes — renamed or reordered columns would load misaligned — and a
// file without one is an error too.
func TestLoadRequiresSaveHeaders(t *testing.T) {
	files := saveCSVBytes(t, binarySampleDB())
	for name, header := range map[string]string{
		sitesFile:   "site,hostname,first_rank,v4_as,v6_as",
		dnsFile:     "vantage,site,round,has_aaaa,has_a,identical",
		samplesFile: "vantage,site,family,round,date,page_bytes,downloads,mean_speed",
		pathsFile:   "vantage,dst,family,round,path",
	} {
		data := files[name]
		edited := append([]byte(header), data[bytes.IndexByte(data, '\n'):]...)
		for _, bad := range [][]byte{edited, nil} {
			err := loadAgrees(t, withFile(files, name, bad))
			if err == nil || !strings.HasPrefix(err.Error(), "store: "+name+": ") || !strings.Contains(err.Error(), "header") {
				t.Errorf("%s with header %q: error %v, want a header error naming the file", name, bytes.SplitN(bad, []byte("\n"), 2)[0], err)
			}
		}
	}
}

// csvLoadCases are hand-written contents for one file of a saved
// database (the others stay valid), covering each way a line leaves
// the byte scanner's fast path and the row errors around it.
func csvLoadCases(files map[string][]byte) []struct {
	name string
	file string
	data []byte
} {
	sites := string(files[sitesFile])
	dns := string(files[dnsFile])
	mid := func(s string) int { return strings.IndexByte(s[len(s)/2:], '\n') + len(s)/2 + 1 }
	insert := func(s, line string) []byte { i := mid(s); return []byte(s[:i] + line + s[i:]) }
	long := "penn,99," + strings.Repeat("1", 70000) + ",true,true,true\n"
	type c = struct {
		name string
		file string
		data []byte
	}
	return []c{
		{"quoted-host-mid-file", sitesFile, insert(sites, "77,\"quoted, host\",3,4,5\n")},
		{"quoted-multiline-host", sitesFile, insert(sites, "77,\"two\nlines\",3,4,5\n")},
		{"quoted-header", sitesFile, []byte(`"site",host,first_rank,v4_as,v6_as` + sites[strings.IndexByte(sites, '\n'):])},
		{"crlf-file", dnsFile, []byte(strings.ReplaceAll(dns, "\n", "\r\n"))},
		{"crlf-last-line-only", dnsFile, []byte(dns[:len(dns)-1] + "\r\n")},
		{"bare-quote-mid-file", dnsFile, insert(dns, "penn,5,1,tr\"ue,true,true\n")},
		{"bare-quote-bad-row-first", dnsFile, insert(dns, "penn,x,1,true,true,true\npenn,5,1,\"tr\"ue,true,true\n")},
		{"line-longer-than-buffer", dnsFile, insert(dns, long)},
		{"empty-lines", dnsFile, []byte(strings.ReplaceAll(dns, "\n", "\n\n"))},
		{"no-final-newline", dnsFile, []byte(strings.TrimSuffix(dns, "\n"))},
		{"header-only", dnsFile, []byte(dns[:strings.IndexByte(dns, '\n')+1])},
		{"field-count", dnsFile, insert(dns, "penn,5,1,true,true\n")},
		{"plus-sign-and-zeros", dnsFile, insert(dns, "penn,+0005,-0,true,false,true\n")},
		{"int-overflow", dnsFile, insert(dns, "penn,99999999999999999999,1,true,true,true\n")},
		{"out-of-order-row", dnsFile, []byte(dns + "penn,0,0,true,true,true\n")},
		{"bad-family", samplesFile, []byte(strings.Replace(string(files[samplesFile]), "penn,0,0,", "penn,0,2,", 1))},
		{"bad-path", pathsFile, []byte(strings.Replace(string(files[pathsFile]), "2;5;9", "2;;9", 1))},
	}
}

// TestLoadAgreesWithCSVReader: on inputs that take every exit from the
// byte scanner — quoted fields mid-file, CRLF line ends, bare quotes,
// overlong lines — and on malformed rows, Load and the csv.Reader
// reference fail with the same error or load databases that save
// byte-equal.
func TestLoadAgreesWithCSVReader(t *testing.T) {
	files := saveCSVBytes(t, binarySampleDB())
	for _, tc := range csvLoadCases(files) {
		t.Run(tc.name, func(t *testing.T) {
			loadAgrees(t, withFile(files, tc.file, tc.data))
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

// FuzzLoadCSV feeds arbitrary bytes to Load as one of the four files,
// the other three valid: Load must agree with the csv.Reader reference
// loader — the same error, or databases that save byte-equal.
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
