package store

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// sampleDate dates the samples of tests that do not care about dates:
// a sample needs a date a snapshot carries, which the zero time is not.
var sampleDate = time.Unix(0, 0).UTC()

func TestSites(t *testing.T) {
	db := NewDB()
	db.PutSite(SiteRow{Site: 5, Host: "five.test", FirstRank: 5, V4AS: 10, V6AS: 11})
	db.PutSite(SiteRow{Site: 2, Host: "two.test", FirstRank: 2, V4AS: 20, V6AS: -1})
	if _, ok := db.Site(99); ok {
		t.Fatal("phantom site")
	}
	r, ok := db.Site(5)
	if !ok || r.Host != "five.test" {
		t.Fatalf("site 5: %+v %v", r, ok)
	}
	all := db.Sites()
	if len(all) != 2 || all[0].Site != 2 || all[1].Site != 5 {
		t.Fatalf("sites not sorted: %+v", all)
	}
	// Update overwrites.
	db.PutSite(SiteRow{Site: 5, Host: "five2.test"})
	r, _ = db.Site(5)
	if r.Host != "five2.test" {
		t.Fatal("update failed")
	}
}

func TestSamplesOrdering(t *testing.T) {
	db := NewDB()
	db.AddSample("penn", 1, topo.V4, Sample{Date: sampleDate, Round: 3, MeanSpeed: 30})
	db.AddSample("penn", 1, topo.V4, Sample{Date: sampleDate, Round: 1, MeanSpeed: 10})
	db.AddSample("penn", 1, topo.V4, Sample{Date: sampleDate, Round: 2, MeanSpeed: 20})
	db.AddSample("penn", 1, topo.V6, Sample{Date: sampleDate, Round: 1, MeanSpeed: 99})
	db.AddSample("comcast", 1, topo.V4, Sample{Date: sampleDate, Round: 1, MeanSpeed: 88})
	snap := db.Freeze()
	got := snap.Series(nil, "penn", 1, topo.V4)
	if len(got) != 3 {
		t.Fatalf("%d samples", len(got))
	}
	for i, s := range got {
		if s.Round != i+1 {
			t.Fatalf("not round-ordered: %+v", got)
		}
	}
	if len(snap.Series(nil, "penn", 1, topo.V6)) != 1 {
		t.Fatal("family mixed up")
	}
	if len(snap.Series(nil, "penn", 2, topo.V4)) != 0 {
		t.Fatal("site mixed up")
	}
}

func TestSampledSites(t *testing.T) {
	db := NewDB()
	db.AddSample("penn", 7, topo.V4, Sample{Date: sampleDate, Round: 1})
	db.AddSample("penn", 3, topo.V6, Sample{Date: sampleDate, Round: 1})
	db.AddSample("lu", 9, topo.V4, Sample{Date: sampleDate, Round: 1})
	got := db.Freeze().SampledSites("penn")
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("sampled sites: %v", got)
	}
}

func TestPathsCollapseAndHistory(t *testing.T) {
	db := NewDB()
	db.AddPath("penn", topo.V4, 50, 1, []int{0, 5, 50})
	db.AddPath("penn", topo.V4, 50, 2, []int{0, 5, 50}) // identical: collapsed
	db.AddPath("penn", topo.V4, 50, 5, []int{0, 9, 50}) // change
	snap := db.Freeze()
	if !snap.PathChanged("penn", topo.V4, 50) {
		t.Fatal("change not detected")
	}
	if snap.PathChanged("penn", topo.V6, 50) {
		t.Fatal("phantom change")
	}
	hist := snap.view("penn").paths[famDstKey{topo.V4, 50}]
	if len(hist) != 2 || hist[0].Round != 1 || hist[0].Path[1] != 5 || hist[1].Round != 5 || hist[1].Path[1] != 9 {
		t.Fatalf("path history: %+v", hist)
	}
	if p := snap.LatestPath("penn", topo.V4, 50); p[1] != 9 {
		t.Fatalf("latest path: %v", p)
	}
	if snap.LatestPath("penn", topo.V4, 999) != nil {
		t.Fatal("phantom path")
	}
	if got := snap.PathDestinations("penn", topo.V4); len(got) != 1 || got[0] != 50 {
		t.Fatalf("destinations: %v", got)
	}
}

func TestASesCrossed(t *testing.T) {
	db := NewDB()
	db.AddPath("penn", topo.V4, 50, 1, []int{0, 5, 50})
	db.AddPath("penn", topo.V4, 60, 1, []int{0, 7, 60})
	x := db.Freeze().ASesCrossed("penn", topo.V4)
	for _, want := range []int{0, 5, 7, 50, 60} {
		if !x[want] {
			t.Fatalf("AS %d missing from crossed set %v", want, x)
		}
	}
	if len(x) != 5 {
		t.Fatalf("crossed set %v", x)
	}
}

func TestVantagesAndCounts(t *testing.T) {
	db := NewDB()
	db.AddDNS("penn", DNSRow{Site: 1, Round: 1, HasA: true})
	db.AddSample("comcast", 2, topo.V4, Sample{Date: sampleDate, Round: 1})
	db.AddPath("lu", topo.V6, 3, 1, []int{0, 3})
	vs := db.Vantages()
	if len(vs) != 3 || vs[0] != "comcast" || vs[1] != "lu" || vs[2] != "penn" {
		t.Fatalf("vantages: %v", vs)
	}
	s, d, sa, p := db.Counts()
	if s != 0 || d != 1 || sa != 1 || p != 1 {
		t.Fatalf("counts: %d %d %d %d", s, d, sa, p)
	}
	if db.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := NewDB()
	db.PutSite(SiteRow{Site: 1, Host: "one.test", FirstRank: 17, V4AS: 3, V6AS: 4})
	db.PutSite(SiteRow{Site: 2, Host: "two.test", FirstRank: 400, V4AS: 5, V6AS: -1})
	db.AddDNS("penn", DNSRow{Site: 1, Round: 2, HasA: true, HasAAAA: true, Identical: true})
	db.AddDNS("penn", DNSRow{Site: 2, Round: 2, HasA: true})
	date := time.Date(2011, 3, 14, 15, 9, 0, 0, time.UTC)
	db.AddSample("penn", 1, topo.V4, Sample{Round: 2, Date: date, PageBytes: 31415, Downloads: 5, MeanSpeed: 42.5, CIOK: true})
	db.AddSample("penn", 1, topo.V6, Sample{Round: 2, Date: date, PageBytes: 31415, Downloads: 7, MeanSpeed: 40.1, CIOK: true})
	db.AddPath("penn", topo.V4, 3, 1, []int{0, 9, 3})
	db.AddPath("penn", topo.V6, 4, 1, []int{0, 8, 4})
	db.AddPath("penn", topo.V6, 4, 6, []int{0, 7, 4})

	base := filepath.Join(dir, "main")
	if err := db.SaveBinary(base+BinaryExt, BinaryOptions{Compress: true}); err != nil {
		t.Fatalf("SaveBinary: %v", err)
	}
	got, err := Load(base)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	requireSameCSV(t, got, db)
	if s, d, sa, p := got.Counts(); s != 2 || d != 2 || sa != 2 || p != 3 {
		t.Fatalf("loaded counts: %d %d %d %d", s, d, sa, p)
	}
	r, ok := got.Site(1)
	if !ok || r.Host != "one.test" || r.V6AS != 4 {
		t.Fatalf("site: %+v", r)
	}
	snap := got.Freeze()
	ss := snap.Series(nil, "penn", 1, topo.V4)
	if len(ss) != 1 || ss[0].MeanSpeed != 42.5 || !ss[0].Date.Equal(date) || !ss[0].CIOK {
		t.Fatalf("sample: %+v", ss)
	}
	if p := snap.LatestPath("penn", topo.V6, 4); len(p) != 3 || p[1] != 7 {
		t.Fatalf("path: %v", p)
	}
	if !snap.PathChanged("penn", topo.V6, 4) {
		t.Fatal("path change lost")
	}
}

func TestConcurrentWrites(t *testing.T) {
	db := NewDB()
	done := make(chan bool, 20)
	for w := 0; w < 20; w++ {
		go func(w int) {
			for i := 0; i < 100; i++ {
				db.AddSample("penn", 1, topo.V4, Sample{Date: sampleDate, Round: i})
				db.AddPath("penn", topo.V4, w, i, []int{0, w})
				db.Freeze().Series(nil, "penn", 1, topo.V4)
			}
			done <- true
		}(w)
	}
	for i := 0; i < 20; i++ {
		<-done
	}
	if got := len(db.Freeze().Series(nil, "penn", 1, topo.V4)); got != 2000 {
		t.Fatalf("lost samples: %d", got)
	}
}

func TestSaveLoadPropertyRandomDBs(t *testing.T) {
	// Property: SaveBinary→Load preserves counts, spot-checked content
	// and the CSV export's bytes for randomly generated databases.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		db := NewDB()
		nSites := 1 + rng.Intn(20)
		for i := 0; i < nSites; i++ {
			id := alexa.SiteID(rng.Intn(1000))
			db.PutSite(SiteRow{Site: id, Host: "h", FirstRank: rng.Intn(5000), V4AS: rng.Intn(100), V6AS: rng.Intn(100) - 1})
			v := Vantage([]string{"a", "b"}[rng.Intn(2)])
			for r := 0; r < rng.Intn(5); r++ {
				db.AddSample(v, id, topo.Family(rng.Intn(2)), Sample{
					Round: r, Date: time.Unix(int64(rng.Intn(1e9)), 0).UTC(),
					PageBytes: rng.Intn(1e6), Downloads: rng.Intn(30),
					MeanSpeed: rng.Float64() * 100, CIOK: rng.Intn(2) == 0,
				})
			}
			db.AddDNS(v, DNSRow{Site: id, Round: rng.Intn(30), HasA: true, HasAAAA: rng.Intn(2) == 0})
			path := []int{0, rng.Intn(50), rng.Intn(50) + 50}
			db.AddPath(v, topo.V4, path[2], 0, path)
		}
		base := filepath.Join(t.TempDir(), "main")
		if err := db.SaveBinary(base+BinaryExt, BinaryOptions{}); err != nil {
			t.Fatalf("trial %d save: %v", trial, err)
		}
		got, err := Load(base)
		if err != nil {
			t.Fatalf("trial %d load: %v", trial, err)
		}
		requireSameCSV(t, got, db)
		s1, d1, sa1, p1 := db.Counts()
		s2, d2, sa2, p2 := got.Counts()
		if s1 != s2 || d1 != d2 || sa1 != sa2 || p1 != p2 {
			t.Fatalf("trial %d counts: (%d %d %d %d) vs (%d %d %d %d)",
				trial, s1, d1, sa1, p1, s2, d2, sa2, p2)
		}
		for _, site := range db.Sites() {
			g, ok := got.Site(site.Site)
			if !ok || g != site {
				t.Fatalf("trial %d site %d mismatch: %+v vs %+v", trial, site.Site, site, g)
			}
		}
	}
}

// requireSameCSV fails t unless got and want export byte-identical
// CSV files.
func requireSameCSV(t *testing.T, got, want *DB) {
	t.Helper()
	g, w := saveCSVBytes(t, got), saveCSVBytes(t, want)
	for name, data := range w {
		if !bytes.Equal(g[name], data) {
			t.Fatalf("%s differs after the round trip:\n got %q\nwant %q", name, g[name], data)
		}
	}
}
