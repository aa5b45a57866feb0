package store

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

const testExtBase alexa.SiteID = 1 << 40

// buildWireDB populates a database exercising every encoding surface:
// inline runs, spilled runs, gaps of skipped rounds, host overrides,
// unknown origin ASes, both sample families, and the extended range.
func buildWireDB() *DB {
	db := NewDB()
	db.Reserve(96, testExtBase, 48)
	date := func(r int) time.Time {
		return time.Date(2010, 12, 9, 0, 0, 0, 0, time.UTC).AddDate(0, 0, 7*r)
	}
	for i := 0; i < 96; i += 3 {
		id := alexa.SiteID(i)
		host := alexa.HostName(id)
		if i%9 == 0 {
			host = "override.example"
		}
		v4 := 10 + i%7
		v6 := -1
		if i%2 == 0 {
			v6 = 40 + i%5
		}
		db.PutSite(SiteRow{Site: id, Host: host, FirstRank: 1 + i, V4AS: v4, V6AS: v6})
	}
	for i := 0; i < 48; i += 5 {
		id := testExtBase + alexa.SiteID(i)
		db.PutSite(SiteRow{Site: id, Host: alexa.HostName(id), FirstRank: 1000 + i, V4AS: 3, V6AS: -1})
	}
	for _, v := range []Vantage{"Penn", "LU"} {
		for i := 0; i < 96; i += 3 {
			id := alexa.SiteID(i)
			switch i % 9 {
			case 0: // one steady run
				for r := 0; r < 6; r++ {
					db.AddDNS(v, DNSRow{Site: id, Round: r, HasA: true})
				}
			case 3: // one transition: two inline runs
				for r := 0; r < 6; r++ {
					db.AddDNS(v, DNSRow{Site: id, Round: r, HasA: true, HasAAAA: r >= 3, Identical: r >= 4})
				}
			default: // flapping: spilled runs, then a gap of skipped rounds
				for r := 0; r < 8; r++ {
					db.AddDNS(v, DNSRow{Site: id, Round: r, HasA: true, HasAAAA: r%2 == 0})
				}
				db.AddDNS(v, DNSRow{Site: id, Round: 11, HasA: true})
			}
		}
		for i := 0; i < 48; i += 5 {
			id := testExtBase + alexa.SiteID(i)
			db.AddDNS(v, DNSRow{Site: id, Round: 4, HasA: true, HasAAAA: true})
			db.AddDNS(v, DNSRow{Site: id, Round: 6, HasA: true})
		}
		for i := 0; i < 96; i += 6 {
			id := alexa.SiteID(i)
			for _, fam := range []topo.Family{topo.V4, topo.V6} {
				for r := 0; r < 4; r++ {
					db.AddSample(v, id, fam, Sample{
						Round: r, Date: date(r), PageBytes: 10000 + i + r,
						Downloads: 3 + r, MeanSpeed: 123.456 + float64(i)/7 + float64(fam),
						CIOK: r%2 == 0,
					})
				}
			}
		}
		db.AddSample(v, testExtBase+5, topo.V4, Sample{
			Round: 2, Date: date(2), PageBytes: 777, Downloads: 4, MeanSpeed: 88.25, CIOK: true,
		})
	}
	return db
}

func encodeSection(t *testing.T, db *DB, section byte, v Vantage, lo, hi alexa.SiteID) []byte {
	t.Helper()
	buf, _, err := db.AppendShardSection(nil, section, v, lo, hi)
	if err != nil {
		t.Fatalf("AppendShardSection(%d, %q, [%d,%d)): %v", section, v, lo, hi, err)
	}
	return buf
}

func saveDir(t *testing.T, db *DB, name string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := db.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return dir
}

func assertDirsEqual(t *testing.T, want, got string) {
	t.Helper()
	for _, name := range []string{sitesFile, dnsFile, samplesFile, pathsFile} {
		w, err := os.ReadFile(filepath.Join(want, name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		g, err := os.ReadFile(filepath.Join(got, name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if string(w) != string(g) {
			t.Errorf("%s differs after shard wire round-trip", name)
		}
	}
}

// wireOverflowRows writes rows for overflow ids around both dense
// ranges of buildWireDB: no shard range carries them.
func wireOverflowRows(db *DB) {
	for _, id := range []alexa.SiteID{100, 500, testExtBase - 3, testExtBase + 60} {
		db.PutSite(SiteRow{Site: id, Host: alexa.HostName(id), FirstRank: 9, V4AS: 2, V6AS: -1})
		db.AddDNS("Penn", DNSRow{Site: id, Round: 2, HasA: true})
		db.AddSample("Penn", id, topo.V4, Sample{Round: 2, Date: time.Unix(0, 0).UTC(), PageBytes: 5, Downloads: 1, MeanSpeed: 2})
	}
}

// TestShardWireRoundTrip encodes every section over chunked sub-ranges
// of both dense ranges and merges them into a fresh database; the CSVs
// of the two databases must be byte-identical. The chunk bounds fall
// inside 16-id slot groups, each on a site with a row, DNS history and
// samples, so a range walk that starts past lo drops that site and one
// that reaches hi hands the merge a site outside its range. The
// overflow ids around the ranges, which no chunk carries, are written
// to both databases row by row. The walkers themselves are then held
// to ranges holding overflow ids too: each visits exactly the full
// walk's sites inside its range.
func TestShardWireRoundTrip(t *testing.T) {
	src := buildWireDB()
	wireOverflowRows(src)
	dst := NewDB()
	dst.Reserve(96, testExtBase, 48)
	wireOverflowRows(dst)

	// Deliberately uneven chunk boundaries, sent out of order.
	ranges := [][2]alexa.SiteID{
		{42, 96}, {0, 21}, {21, 42},
		{testExtBase + 25, testExtBase + 48}, {testExtBase, testExtBase + 5}, {testExtBase + 5, testExtBase + 25},
	}
	for _, rg := range ranges {
		payload := encodeSection(t, src, ShardSites, "", rg[0], rg[1])
		if err := dst.MergeShard(rg[0], rg[1], ShardSites, "", payload); err != nil {
			t.Fatalf("MergeShard sites [%d,%d): %v", rg[0], rg[1], err)
		}
		for _, v := range src.Vantages() {
			for _, section := range []byte{ShardDNS, ShardSamples} {
				payload := encodeSection(t, src, section, v, rg[0], rg[1])
				if err := dst.MergeShard(rg[0], rg[1], section, v, payload); err != nil {
					t.Fatalf("MergeShard section %d %q [%d,%d): %v", section, v, rg[0], rg[1], err)
				}
			}
		}
	}

	wantSites, wantDNS, wantSamples, _ := src.Counts()
	gotSites, gotDNS, gotSamples, _ := dst.Counts()
	if wantSites != gotSites || wantDNS != gotDNS || wantSamples != gotSamples {
		t.Fatalf("counts differ: want sites=%d dns=%d samples=%d, got sites=%d dns=%d samples=%d",
			wantSites, wantDNS, wantSamples, gotSites, gotDNS, gotSamples)
	}
	assertDirsEqual(t, saveDir(t, src, "src"), saveDir(t, dst, "dst"))

	var allSites, allDNS []alexa.SiteID
	src.forEachStoredSite(0, snapAllSites, func(r SiteRow, _ bool) { allSites = append(allSites, r.Site) })
	src.lockedDNSView("Penn", func(view *dnsView) {
		view.walkRuns(0, snapAllSites, func(site alexa.SiteID, _ []dnsRun) { allDNS = append(allDNS, site) })
	})
	inside := func(ids []alexa.SiteID, lo, hi alexa.SiteID) (out []alexa.SiteID) {
		for _, id := range ids {
			if lo <= id && id < hi {
				out = append(out, id)
			}
		}
		return out
	}
	for _, rg := range append(ranges, [][2]alexa.SiteID{
		{90, 510}, {3, 100}, {100, 101}, {testExtBase - 3, testExtBase + 61}, {testExtBase + 45, testExtBase + 60},
	}...) {
		var sites, dns []alexa.SiteID
		src.forEachStoredSite(rg[0], rg[1], func(r SiteRow, _ bool) { sites = append(sites, r.Site) })
		src.lockedDNSView("Penn", func(view *dnsView) {
			view.walkRuns(rg[0], rg[1], func(site alexa.SiteID, _ []dnsRun) { dns = append(dns, site) })
		})
		if want := inside(allSites, rg[0], rg[1]); !slices.Equal(sites, want) {
			t.Errorf("site walk of [%d,%d) visits %v, want %v", rg[0], rg[1], sites, want)
		}
		if want := inside(allDNS, rg[0], rg[1]); !slices.Equal(dns, want) {
			t.Errorf("DNS walk of [%d,%d) visits %v, want %v", rg[0], rg[1], dns, want)
		}
	}
}

// TestMergeShardOverlapRejected covers the non-overlap assertion: a
// re-sent or mis-split range must fail for the same (section, vantage)
// while adjacent ranges and other vantages stay legal.
func TestMergeShardOverlapRejected(t *testing.T) {
	src := buildWireDB()
	dst := NewDB()
	dst.Reserve(96, testExtBase, 48)

	payload := func(lo, hi alexa.SiteID) []byte {
		return encodeSection(t, src, ShardDNS, "Penn", lo, hi)
	}
	if err := dst.MergeShard(0, 48, ShardDNS, "Penn", payload(0, 48)); err != nil {
		t.Fatalf("first merge: %v", err)
	}
	if err := dst.MergeShard(0, 48, ShardDNS, "Penn", payload(0, 48)); err == nil ||
		!strings.Contains(err.Error(), "overlap") {
		t.Fatalf("re-sent range: want overlap error, got %v", err)
	}
	if err := dst.MergeShard(30, 60, ShardDNS, "Penn", payload(30, 60)); err == nil ||
		!strings.Contains(err.Error(), "overlap") {
		t.Fatalf("partially overlapping range: want overlap error, got %v", err)
	}
	if err := dst.MergeShard(48, 96, ShardDNS, "Penn", payload(48, 96)); err != nil {
		t.Fatalf("adjacent range: %v", err)
	}
	if err := dst.MergeShard(0, 48, ShardDNS, "LU",
		encodeSection(t, src, ShardDNS, "LU", 0, 48)); err != nil {
		t.Fatalf("same range, other vantage: %v", err)
	}
}

// TestMergeShardRejectsBadInput covers the remaining assertions:
// ranges outside the reservation, unknown sections, occupied target
// slots, truncated payloads, and a DNS site entry whose out-of-order
// row count, always 0, is not (wire ranges are dense, so only the
// dense-id cases apply). The landing rule holds without any claim in
// the way: a DNS history or sample series the write API put in place
// refuses a merge onto it, naming the site. (The writers refuse rows
// at rounds the codec cannot carry; see
// TestWritersRefuseRoundsOutsideCodec.)
func TestMergeShardRejectsBadInput(t *testing.T) {
	src := buildWireDB()
	dst := NewDB()
	dst.Reserve(96, testExtBase, 48)

	if err := dst.MergeShard(0, 200, ShardDNS, "Penn", nil); err == nil {
		t.Error("range beyond the reservation: want error")
	}
	if err := dst.MergeShard(50, 50, ShardDNS, "Penn", nil); err == nil {
		t.Error("empty range: want error")
	}
	if err := dst.MergeShard(0, alexa.SiteID(96)+testExtBase, ShardDNS, "Penn", nil); err == nil {
		t.Error("range spanning both dense ranges: want error")
	}
	if err := dst.MergeShard(0, 48, 99, "Penn", nil); err == nil {
		t.Error("unknown section: want error")
	}
	if _, _, err := src.AppendShardSection(nil, 99, "Penn", 0, 48); err == nil {
		t.Error("unknown section encode: want error")
	}

	good := encodeSection(t, src, ShardDNS, "Penn", 0, 48)
	if err := dst.MergeShard(0, 48, ShardDNS, "Penn", good); err != nil {
		t.Fatalf("merge: %v", err)
	}
	// Same rows again under a disjoint claim label would still hit an
	// occupied history slot — the data-level assertion.
	if err := dst.MergeShard(0, 48, ShardDNS, "Penn2", good); err != nil {
		t.Fatalf("merge under other vantage: %v", err)
	}
	dst2 := NewDB()
	dst2.Reserve(96, testExtBase, 48)
	if err := dst2.MergeShard(0, 48, ShardDNS, "Penn", good[:len(good)/2]); err == nil {
		t.Error("truncated payload: want error")
	}

	for _, c := range orderCases() {
		if table, _ := dst2.res.locate(c.row.Site); table < 0 {
			continue
		}
		if err := dst2.MergeShard(0, 16, ShardDNS, Vantage(c.name+"-zero"), c.dnsSection(0, 0)); err != nil {
			t.Errorf("%s: with a zero out-of-order count: %v", c.name, err)
		}
		if err := dst2.MergeShard(0, 16, ShardDNS, Vantage(c.name), c.dnsSection(0, 1)); err == nil ||
			!strings.Contains(err.Error(), "out-of-order") {
			t.Errorf("%s: a non-zero out-of-order count: %v, want an out-of-order error", c.name, err)
		}
	}

	// A series is allocated at its sample count, so a count its bytes
	// cannot hold (12 per sample at least) is refused before any sample.
	var w wbuf
	w.uvarint(0) // no dates
	w.uvarint(1) // one series
	w.uvarint(3) // at site 3, family v6,
	w.byteVal(byte(topo.V6))
	w.uvarint(5) // claims five samples and holds the bytes of one
	for _, x := range []uint64{0, 0, 9, 0} {
		w.uvarint(x)
	}
	w.u64(0)
	if err := dst2.MergeShard(0, 48, ShardSamples, "Penn", w.b); err == nil || !strings.Contains(err.Error(), "bad series (3, 1) of 5 samples") {
		t.Errorf("a series longer than its bytes: %v, want a bad-series refusal", err)
	}

	held := NewDB()
	held.Reserve(96, testExtBase, 48)
	held.AddDNS("Penn", DNSRow{Site: 3, Round: 0, HasA: true})
	if err := held.MergeShard(0, 48, ShardDNS, "Penn", good); err == nil || !strings.Contains(err.Error(), `site 3 vantage "Penn" already has history`) {
		t.Errorf("DNS onto a held history: %v, want a refusal naming site 3", err)
	}
	held.AddSample("Penn", 6, topo.V6, Sample{Round: 0, Date: time.Unix(0, 0).UTC()})
	samples := encodeSection(t, src, ShardSamples, "Penn", 0, 48)
	if err := held.MergeShard(0, 48, ShardSamples, "Penn", samples); err == nil || !strings.Contains(err.Error(), `site 6 family 1 vantage "Penn" already has a sample`) {
		t.Errorf("samples onto a held series: %v, want a refusal naming site 6", err)
	}
}
