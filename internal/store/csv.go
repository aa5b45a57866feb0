package store

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// File names used by Save/Load.
const (
	sitesFile   = "sites.csv"
	dnsFile     = "dns.csv"
	samplesFile = "samples.csv"
	pathsFile   = "paths.csv"
)

// The files' headers: Save writes them and Load requires them.
var (
	sitesHeader   = []string{"site", "host", "first_rank", "v4_as", "v6_as"}
	dnsHeader     = []string{"vantage", "site", "round", "has_a", "has_aaaa", "identical"}
	samplesHeader = []string{"vantage", "site", "family", "round", "date", "page_bytes", "downloads", "mean_speed", "ci_ok"}
	pathsHeader   = []string{"vantage", "family", "dst", "round", "path"}
)

// Save writes the database as four CSV files under dir, creating it
// if needed. Every file streams row by row through a bufio.Writer in
// the tables' canonical iteration order — no sorted whole-table copy
// is ever materialized, so saving a paper-scale database needs O(1)
// extra memory. The bytes are those encoding/csv's Writer produces for
// the same records. Each file is fsynced before it is closed and dir
// after the last one, so a returned nil means the database survives
// power loss.
func (db *DB) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := db.saveSites(filepath.Join(dir, sitesFile)); err != nil {
		return err
	}
	if err := db.saveDNS(filepath.Join(dir, dnsFile)); err != nil {
		return err
	}
	if err := db.saveSamples(filepath.Join(dir, samplesFile)); err != nil {
		return err
	}
	if err := db.savePaths(filepath.Join(dir, pathsFile)); err != nil {
		return err
	}
	return syncDir(dir)
}

// csvOut writes one CSV file a row at a time. A row is appended field
// by field into one reused line buffer, each field followed by a
// comma that endRow turns into the newline, and then copied into a
// bufio.Writer on top of the file. Numbers, dates and booleans are
// appended as encoding/csv would write their strconv text, which never
// needs quoting; free-text fields go through appendField. Write errors
// latch in the bufio.Writer; close reports the first one.
type csvOut struct {
	f    *os.File
	bw   *bufio.Writer
	line []byte
}

func createCSV(path string, header []string) (*csvOut, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	o := &csvOut{f: f, bw: bufio.NewWriterSize(f, 1<<16)}
	o.bw.WriteString(strings.Join(header, ",") + "\n")
	return o, nil
}

// intField appends an integer field.
func (o *csvOut) intField(n int) { o.line = append(strconv.AppendInt(o.line, int64(n), 10), ',') }

// textField appends a free-text field.
func (o *csvOut) textField(s string) { o.line = append(appendField(o.line, s), ',') }

// endRow writes the buffered row and empties the buffer.
func (o *csvOut) endRow() {
	o.line[len(o.line)-1] = '\n'
	o.bw.Write(o.line)
	o.line = o.line[:0]
}

func (o *csvOut) close() error {
	err := o.bw.Flush()
	if err == nil {
		err = o.f.Sync()
	}
	if cerr := o.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendField appends s encoded as encoding/csv's Writer encodes a
// field: verbatim unless fieldNeedsQuotes, and otherwise escaped by a
// csv.Writer, which quotes it and doubles its quotes.
func appendField(dst []byte, s string) []byte {
	if !fieldNeedsQuotes(s) {
		return append(dst, s...)
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write([]string{s}) // a one-field record into memory cannot fail
	w.Flush()
	return append(dst, buf.Bytes()[:buf.Len()-1]...) // drop the record's newline
}

// fieldNeedsQuotes is encoding/csv's Writer.fieldNeedsQuotes for the
// ',' delimiter: a field is quoted if it holds a comma, quote, CR or
// LF, starts with a Unicode space, or is exactly `\.`.
func fieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		if c := field[i]; c == '\n' || c == '\r' || c == '"' || c == ',' {
			return true
		}
	}
	r1, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r1)
}

// vantageField returns v encoded as a field, comma included: every
// row of a vantage starts with it.
func vantageField(v Vantage) []byte {
	return append(appendField(nil, string(v)), ',')
}

func (db *DB) saveSites(path string) error {
	o, err := createCSV(path, sitesHeader)
	if err != nil {
		return err
	}
	db.forEachSite(func(r SiteRow) {
		o.line = append(strconv.AppendInt(o.line, int64(r.Site), 10), ',')
		o.textField(r.Host)
		o.intField(r.FirstRank)
		o.intField(r.V4AS)
		o.intField(r.V6AS)
		o.endRow()
	})
	return o.close()
}

func (db *DB) saveDNS(path string) error {
	o, err := createCSV(path, dnsHeader)
	if err != nil {
		return err
	}
	// A row is its site's "vantage,site," prefix, the round, and one of
	// eight outcome suffixes.
	var outcome [dnsStateMask + 1][]byte
	for s := range outcome {
		outcome[s] = fmt.Appendf(nil, "%t,%t,%t,", s&dnsHasA != 0, s&dnsHasAAAA != 0, s&dnsIdentical != 0)
	}
	var prefix []byte
	// The walker's canonical (site, round) order is the file's order:
	// workers append concurrently, so equal databases must serialize to
	// byte-identical files — checkpoint/resume correctness is verified
	// by comparing saved CSVs.
	for _, v := range db.Vantages() {
		vf := vantageField(v)
		prefix = prefix[:0]
		var site alexa.SiteID
		db.ForEachDNS(v, func(r DNSRow) {
			if len(prefix) == 0 || r.Site != site {
				site = r.Site
				prefix = append(strconv.AppendInt(append(prefix[:0], vf...), int64(site), 10), ',')
			}
			o.line = append(o.line, prefix...)
			o.intField(r.Round)
			o.line = append(o.line, outcome[dnsState(r.HasA, r.HasAAAA, r.Identical)]...)
			o.endRow()
		})
	}
	return o.close()
}

func (db *DB) saveSamples(path string) error {
	o, err := createCSV(path, samplesHeader)
	if err != nil {
		return err
	}
	for _, v := range db.Vantages() {
		vf := vantageField(v)
		db.ForEachSeries(v, func(site alexa.SiteID, fam topo.Family, ss []Sample) {
			for _, smp := range ss {
				o.line = append(o.line, vf...)
				o.line = append(strconv.AppendInt(o.line, int64(site), 10), ',')
				o.intField(int(fam))
				o.intField(smp.Round)
				o.line = append(smp.Date.UTC().AppendFormat(o.line, time.RFC3339), ',')
				o.intField(smp.PageBytes)
				o.intField(smp.Downloads)
				o.line = append(strconv.AppendFloat(o.line, smp.MeanSpeed, 'g', 17, 64), ',')
				o.line = append(strconv.AppendBool(o.line, smp.CIOK), ',')
				o.endRow()
			}
		})
	}
	return o.close()
}

func (db *DB) savePaths(path string) error {
	o, err := createCSV(path, pathsHeader)
	if err != nil {
		return err
	}
	for _, v := range db.Vantages() {
		vf := vantageField(v)
		t := db.lookup(v)
		t.pathMu.Lock()
		keys := make([]famDstKey, 0, len(t.paths))
		for k := range t.paths {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.fam != b.fam {
				return a.fam < b.fam
			}
			return a.dst < b.dst
		})
		for _, k := range keys {
			for _, snap := range t.paths[k] {
				o.line = append(o.line, vf...)
				o.intField(int(k.fam))
				o.intField(k.dst)
				o.intField(snap.Round)
				for i, as := range snap.Path {
					if i > 0 {
						o.line = append(o.line, ';')
					}
					o.line = strconv.AppendInt(o.line, int64(as), 10)
				}
				o.line = append(o.line, ',')
				o.endRow()
			}
		}
		t.pathMu.Unlock()
	}
	return o.close()
}

// ErrNoDatabase reports that a directory holds no saved database at
// all, as opposed to a partial one. Callers that treat an absent
// database as optional (e.g. the World IPv6 Day side experiment) can
// test for it with errors.Is.
var ErrNoDatabase = errors.New("no saved database")

// Load reads a database previously written by Save. A directory with
// none of the database files returns ErrNoDatabase; a partially
// written directory (some files missing, e.g. after an interrupted
// Save) returns an error naming the missing files rather than
// silently yielding an incomplete database. Each file's header must be
// the one Save writes, its boolean fields exactly true or false, and a
// sample's family 0 (IPv4) or 1 (IPv6); a row that breaks one is an
// error naming the file and row.
func Load(dir string) (*DB, error) {
	files := []string{sitesFile, dnsFile, samplesFile, pathsFile}
	var missing []string
	for _, name := range files {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			// Only genuine absence counts as missing; a present but
			// unreadable database is an I/O error, not "no database".
			if !errors.Is(err, fs.ErrNotExist) {
				return nil, fmt.Errorf("store: load %s: %w", dir, err)
			}
			missing = append(missing, name)
		}
	}
	if len(missing) == len(files) {
		return nil, fmt.Errorf("store: %w in %s", ErrNoDatabase, dir)
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("store: %s is missing %d of %d database files (%s) — partial or interrupted save",
			dir, len(missing), len(files), strings.Join(missing, ", "))
	}
	db := NewDB()
	if err := loadCSV(filepath.Join(dir, sitesFile), sitesHeader, func(rec [][]byte) error {
		site, err := parseSiteID(rec[0])
		if err != nil {
			return err
		}
		fr, err := atoi(rec[2])
		if err != nil {
			return err
		}
		v4, err := atoi(rec[3])
		if err != nil {
			return err
		}
		v6, err := atoi(rec[4])
		if err != nil {
			return err
		}
		db.PutSite(SiteRow{Site: site, Host: string(rec[1]), FirstRank: fr, V4AS: v4, V6AS: v6})
		return nil
	}); err != nil {
		return nil, err
	}
	dns := dnsLoader{db: db}
	if err := loadCSV(filepath.Join(dir, dnsFile), dnsHeader, dns.row); err != nil {
		return nil, err
	}
	dns.flush()
	var sampleV vantageCache
	if err := loadCSV(filepath.Join(dir, samplesFile), samplesHeader, func(rec [][]byte) error {
		site, err := parseSiteID(rec[1])
		if err != nil {
			return err
		}
		fam, err := atoi(rec[2])
		if err != nil {
			return err
		}
		if fam != int(topo.V4) && fam != int(topo.V6) {
			return fmt.Errorf("family %d is not %d (IPv4) or %d (IPv6)", fam, topo.V4, topo.V6)
		}
		round, err := atoi(rec[3])
		if err != nil {
			return err
		}
		date, err := time.Parse(time.RFC3339, string(rec[4]))
		if err != nil {
			return err
		}
		page, err := atoi(rec[5])
		if err != nil {
			return err
		}
		dls, err := atoi(rec[6])
		if err != nil {
			return err
		}
		speed, err := strconv.ParseFloat(string(rec[7]), 64)
		if err != nil {
			return err
		}
		ciOK, err := parseFlag("ci_ok", rec[8])
		if err != nil {
			return err
		}
		db.AddSample(sampleV.of(rec[0]), site, topo.Family(fam), Sample{
			Round: round, Date: date, PageBytes: page, Downloads: dls,
			MeanSpeed: speed, CIOK: ciOK,
		})
		return nil
	}); err != nil {
		return nil, err
	}
	var pathV vantageCache
	var path []int
	if err := loadCSV(filepath.Join(dir, pathsFile), pathsHeader, func(rec [][]byte) error {
		fam, err := atoi(rec[1])
		if err != nil {
			return err
		}
		dst, err := atoi(rec[2])
		if err != nil {
			return err
		}
		round, err := atoi(rec[3])
		if err != nil {
			return err
		}
		if path, err = appendInts(path[:0], rec[4]); err != nil {
			return err
		}
		db.AddPath(pathV.of(rec[0]), topo.Family(fam), dst, round, path) // AddPath copies path
		return nil
	}); err != nil {
		return nil, err
	}
	return db, nil
}

// dnsLoader decodes dns.csv rows. It holds back each run of rows for
// one (vantage, site) — the file is in (site, round) order per vantage
// — and records the run under one lock of the site's shard. Each row
// must extend the site's history, as AddDNS requires: a run's first
// row is checked against the history stored so far, each later one
// against the row before it.
type dnsLoader struct {
	db      *DB
	vantage vantageCache
	t       *vantageTable
	run     []DNSRow
	end     int32 // the round the run's site's history ends before
}

func (d *dnsLoader) row(rec [][]byte) error {
	site, err := parseSiteID(rec[1])
	if err != nil {
		return err
	}
	round, err := atoi(rec[2])
	if err != nil {
		return err
	}
	hasA, err := parseFlag("has_a", rec[3])
	if err != nil {
		return err
	}
	hasAAAA, err := parseFlag("has_aaaa", rec[4])
	if err != nil {
		return err
	}
	identical, err := parseFlag("identical", rec[5])
	if err != nil {
		return err
	}
	if d.t == nil || !d.vantage.is(rec[0]) || d.run[0].Site != site {
		d.flush()
		d.t = d.db.table(d.vantage.of(rec[0]))
		sh := &d.t.dns[uint64(site)&(shards-1)]
		sh.mu.Lock()
		d.end = sh.end(d.db.res, site)
		sh.mu.Unlock()
	}
	if r := int32(round); r < d.end {
		return errDNSOrder(d.vantage.v, site, r, d.end)
	}
	d.end = int32(round) + 1
	d.run = append(d.run, DNSRow{Site: site, Round: round, HasA: hasA, HasAAAA: hasAAAA, Identical: identical})
	return nil
}

// flush records the held-back run, whose rows row has checked.
func (d *dnsLoader) flush() {
	if len(d.run) == 0 {
		return
	}
	sh := &d.t.dns[uint64(d.run[0].Site)&(shards-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	h := sh.hist(d.db.res, d.run[0].Site, true)
	for _, row := range d.run {
		sh.addRun(h, row.Site, int32(row.Round), 1, dnsState(row.HasA, row.HasAAAA, row.Identical))
	}
	d.run = d.run[:0]
}

// vantageCache turns vantage fields into Vantage strings, allocating
// only when the field differs from the previous row's.
type vantageCache struct {
	v   Vantage
	set bool
}

func (c *vantageCache) is(b []byte) bool { return c.set && string(b) == string(c.v) }

func (c *vantageCache) of(b []byte) Vantage {
	if !c.is(b) {
		c.v, c.set = Vantage(b), true
	}
	return c.v
}

// parseDigits parses an optionally negative run of at most 18 decimal
// digits, which cannot overflow; it reports false for anything else.
func parseDigits(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// atoi is strconv.Atoi over a field, skipping the string conversion
// for plain digits.
func atoi(b []byte) (int, error) {
	if n, ok := parseDigits(b); ok {
		return int(n), nil
	}
	return strconv.Atoi(string(b))
}

// parseSiteID is strconv.ParseInt(…, 10, 64) over a field, skipping
// the string conversion for plain digits.
func parseSiteID(b []byte) (alexa.SiteID, error) {
	if n, ok := parseDigits(b); ok {
		return alexa.SiteID(n), nil
	}
	n, err := strconv.ParseInt(string(b), 10, 64)
	return alexa.SiteID(n), err
}

// parseFlag reads a boolean field, which Save writes as true or false.
func parseFlag(column string, b []byte) (bool, error) {
	switch string(b) {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, fmt.Errorf("%s %q is neither true nor false", column, b)
}

// appendInts appends the ';'-separated integers of a path field to
// dst; an empty field is the empty path.
func appendInts(dst []int, b []byte) ([]int, error) {
	if len(b) == 0 {
		return dst, nil
	}
	for {
		field, rest, more := bytes.Cut(b, []byte{';'})
		x, err := atoi(field)
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
		if !more {
			return dst, nil
		}
		b = rest
	}
}

// loadCSV reads one file of a saved database: its first record must
// equal header, and fn decodes every later one, which must have as
// many fields. The fields passed to fn are valid only during the call.
// Memory stays O(1) in the file size.
func loadCSV(path string, header []string, fn func(rec [][]byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	l := &csvLoader{name: filepath.Base(path), header: header, fn: fn}
	err = l.scanPlain(f)
	if errors.Is(err, errNeedsCSVReader) {
		if _, err = f.Seek(0, io.SeekStart); err == nil {
			err = l.scanCSV(f)
		}
	}
	if err == nil && l.n == 0 {
		err = fmt.Errorf("store: %s: no header, want %q", l.name, strings.Join(header, ","))
	}
	return err
}

// csvLoader feeds one file's records, in order, to its decoder. A byte
// scanner splits plain lines on commas without copying them. The first
// line holding a quote or a CR, or longer than the read buffer, hands
// the file to encoding/csv's Reader from its start, which skips the
// records already applied: quoted fields, CRLF line ends and parse
// errors (with their positions) are csv.Reader's.
type csvLoader struct {
	name   string
	header []string
	fn     func(rec [][]byte) error
	n      int // records applied, header included
}

// errNeedsCSVReader stops the byte scanner at a line it leaves to
// encoding/csv.
var errNeedsCSVReader = errors.New("line needs encoding/csv")

// record applies the next record: the header check, then fn.
func (l *csvLoader) record(rec [][]byte) error {
	i := l.n
	l.n++
	if i == 0 {
		return l.checkHeader(rec)
	}
	if len(rec) != len(l.header) {
		return fmt.Errorf("store: %s row %d has %d fields, want %d", l.name, i, len(rec), len(l.header))
	}
	if err := l.fn(rec); err != nil {
		return fmt.Errorf("store: %s row %d: %w", l.name, i, err)
	}
	return nil
}

func (l *csvLoader) checkHeader(rec [][]byte) error {
	ok := len(rec) == len(l.header)
	for i := 0; ok && i < len(rec); i++ {
		ok = string(rec[i]) == l.header[i]
	}
	if ok {
		return nil
	}
	return fmt.Errorf("store: %s: header %q, want %q", l.name, bytes.Join(rec, []byte{','}), strings.Join(l.header, ","))
}

// scanPlain applies records line by line until EOF or, returning
// errNeedsCSVReader, the first line it cannot split itself. Like
// csv.Reader it skips empty lines and accepts a last line without a
// newline.
func (l *csvLoader) scanPlain(r io.Reader) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var fields [][]byte
	for {
		line, err := br.ReadSlice('\n')
		switch {
		case errors.Is(err, bufio.ErrBufferFull):
			return errNeedsCSVReader
		case err != nil && !errors.Is(err, io.EOF):
			return fmt.Errorf("store: %s: %w", l.name, err)
		}
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if len(line) > 0 {
			var plain bool
			if fields, plain = splitPlain(line, fields[:0]); !plain {
				return errNeedsCSVReader
			}
			if rerr := l.record(fields); rerr != nil {
				return rerr
			}
		}
		if err != nil {
			return nil // EOF
		}
	}
}

// splitPlain splits line on commas into fields that share its bytes,
// reporting false if the line holds a quote or a CR.
func splitPlain(line []byte, fields [][]byte) ([][]byte, bool) {
	start := 0
	for i, c := range line {
		if c > ',' { // digits and letters: the bytes of almost every field
			continue
		}
		switch c {
		case ',':
			fields = append(fields, line[start:i])
			start = i + 1
		case '"', '\r':
			return fields, false
		}
	}
	return append(fields, line[start:]), true
}

// scanCSV reads the file from its start with csv.Reader, skipping the
// records scanPlain already applied.
func (l *csvLoader) scanCSV(r io.Reader) error {
	cr := csv.NewReader(bufio.NewReaderSize(r, 1<<16))
	cr.ReuseRecord = true
	cr.FieldsPerRecord = -1 // field counts are checked per row
	var fields [][]byte
	for i, skip := 0, l.n; ; i++ {
		rec, err := cr.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("store: %s: %w", l.name, err)
		}
		if i < skip {
			continue
		}
		fields = fields[:0]
		for _, s := range rec {
			fields = append(fields, []byte(s))
		}
		if err := l.record(fields); err != nil {
			return err
		}
	}
}
