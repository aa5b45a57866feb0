package store

// CSV is the export format. A finished campaign is saved as binary
// snapshots (binary.go) and read back through Load; Save writes a
// database as the four CSV files below, for outside analysis and for
// the golden hashes and byte-identity checks, which compare these
// bytes. Nothing in the program reads them back.

import (
	"bufio"
	"fmt"
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

// File names Save writes.
const (
	sitesFile   = "sites.csv"
	dnsFile     = "dns.csv"
	samplesFile = "samples.csv"
	pathsFile   = "paths.csv"
)

// The files' headers.
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
// field: verbatim unless fieldNeedsQuotes, and otherwise in quotes
// with its own quotes doubled (CR and LF stay as they are).
func appendField(dst []byte, s string) []byte {
	if !fieldNeedsQuotes(s) {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	dst = append(dst, strings.ReplaceAll(s, `"`, `""`)...)
	return append(dst, '"')
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
	// by comparing CSV exports.
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
