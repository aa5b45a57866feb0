package store

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// viewDB builds a small two-vantage database through the public write
// API, with deliberately out-of-order sample inserts at one site so
// the snapshot's sort-on-capture arm is exercised.
func viewDB() *DB {
	db, _ := viewDBRows()
	return db
}

// viewDBRows is viewDB with the samples it wrote, per vantage.
func viewDBRows() (*DB, map[Vantage]sampleRows) {
	db := NewDB()
	wrote := map[Vantage]sampleRows{"penn": {}, "lu": {}}
	addSample := func(v Vantage, site alexa.SiteID, fam topo.Family, s Sample) {
		db.AddSample(v, site, fam, s)
		key := siteFamKey{site, fam}
		wrote[v][key] = append(wrote[v][key], s)
	}
	db.PutSite(SiteRow{Site: 1, Host: "a", FirstRank: 10, V4AS: 3, V6AS: 3})
	db.PutSite(SiteRow{Site: 2, Host: "b", FirstRank: 20, V4AS: 4, V6AS: 5})
	for r := 0; r < 5; r++ {
		db.AddDNS("penn", DNSRow{Site: 1, Round: r, HasA: true, HasAAAA: true})
		db.AddDNS("penn", DNSRow{Site: 2, Round: r, HasA: true, HasAAAA: r > 1})
		for _, fam := range []topo.Family{topo.V4, topo.V6} {
			addSample("penn", 1, fam, Sample{Round: r, Date: time.Unix(int64(r), 0), MeanSpeed: float64(10 + r), CIOK: true})
		}
	}
	// Out-of-order series: rounds 3, 1, 2 through the raw API.
	for _, r := range []int{3, 1, 2} {
		addSample("penn", 2, topo.V4, Sample{Date: sampleDate, Round: r, MeanSpeed: float64(r), CIOK: true})
	}
	db.AddPath("penn", topo.V6, 3, 0, []int{9, 7, 3})
	db.AddPath("penn", topo.V6, 3, 2, []int{9, 8, 3})
	db.AddPath("penn", topo.V4, 3, 0, []int{9, 3})
	addSample("lu", 1, topo.V4, Sample{Date: sampleDate, Round: 0, MeanSpeed: 1, CIOK: true})
	return db, wrote
}

// dump lists the rows' series as a snapshot reads them: in (site,
// family) order, each round-sorted (stable) with its dates in UTC.
func (rows sampleRows) dump() []string {
	keys := make([]siteFamKey, 0, len(rows))
	for key := range rows {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b siteFamKey) int {
		if a.site != b.site {
			return cmp.Compare(a.site, b.site)
		}
		return cmp.Compare(a.fam, b.fam)
	})
	var out []string
	for _, key := range keys {
		ss := slices.Clone(rows[key])
		for i := range ss {
			ss[i].Date = ss[i].Date.UTC()
		}
		slices.SortStableFunc(ss, func(a, b Sample) int { return cmp.Compare(a.Round, b.Round) })
		out = append(out, fmt.Sprintf("%d/%v:%v", key.site, key.fam, ss))
	}
	return out
}

// sites returns the rows' distinct sites, ascending.
func (rows sampleRows) sites() []alexa.SiteID {
	var out []alexa.SiteID
	for key := range rows {
		out = append(out, key.site)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestSnapshotMatchesWrittenRows: a frozen view reads the series the
// writes made, and answers the path and site queries.
func TestSnapshotMatchesWrittenRows(t *testing.T) {
	db, wrote := viewDBRows()
	snap := db.Freeze()

	for _, v := range []Vantage{"penn", "lu"} {
		if got, want := seriesDump(snap.ForEachSeries, v), wrote[v].dump(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s series:\n%v\nwant\n%v", v, got, want)
		}
		if got := snap.SampledSites(v); !reflect.DeepEqual(got, wrote[v].sites()) {
			t.Fatalf("%s SampledSites: %v vs %v", v, got, wrote[v].sites())
		}
	}
	if got := snap.LatestPath("penn", topo.V6, 3); !reflect.DeepEqual(got, []int{9, 8, 3}) {
		t.Fatalf("LatestPath: %v", got)
	}
	if !snap.PathChanged("penn", topo.V6, 3) || snap.PathChanged("penn", topo.V4, 3) {
		t.Fatal("PathChanged mismatch")
	}
	if got := snap.PathDestinations("penn", topo.V6); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("PathDestinations: %v", got)
	}
	if got := snap.ASesCrossed("penn", topo.V6); !reflect.DeepEqual(got, map[int]bool{3: true, 7: true, 8: true, 9: true}) {
		t.Fatalf("ASesCrossed: %v", got)
	}
	if rank, v4, v6, ok := snap.SiteOrigins(2); !ok || rank != 20 || v4 != 4 || v6 != 5 {
		t.Fatalf("SiteOrigins(2): %d %d %d ok=%v", rank, v4, v6, ok)
	}
	if _, _, _, ok := snap.SiteOrigins(99); ok {
		t.Fatal("SiteOrigins(99) present")
	}
	// Unknown vantage: empty results, no panic.
	if snap.SampledSites("nowhere") != nil || snap.Series(nil, "nowhere", 1, topo.V4) != nil ||
		snap.LatestPath("nowhere", topo.V4, 1) != nil {
		t.Fatal("unknown vantage returned data")
	}
}

func TestForEachIterators(t *testing.T) {
	db := viewDB()

	var gotDNS []DNSRow
	db.ForEachDNS("penn", func(r DNSRow) { gotDNS = append(gotDNS, r) })
	if want := db.DNS("penn"); !reflect.DeepEqual(gotDNS, want) {
		t.Fatalf("ForEachDNS: %d rows vs %d", len(gotDNS), len(want))
	}

	// The snapshot's site-ordered series walk visits every penn sample.
	_, _, sampleRows, _ := db.Counts()
	snap := db.Freeze()
	seriesRows := sampleRows - len(snap.Series(nil, "lu", 1, topo.V4))
	snapRows, lastSite := 0, alexa.SiteID(-1)
	snap.ForEachSeries("penn", func(site alexa.SiteID, fam topo.Family, ss []Sample) {
		snapRows += len(ss)
		if site < lastSite {
			t.Fatalf("snapshot series out of site order: %d after %d", site, lastSite)
		}
		lastSite = site
	})
	if snapRows != seriesRows {
		t.Fatalf("snapshot ForEachSeries visited %d rows, want %d", snapRows, seriesRows)
	}
}

// TestSnapshotSeriesSorted: a series inserted out of round order must
// come back round-sorted from the snapshot (as a copy — the store's
// own series must stay untouched for insertion-order readers).
func TestSnapshotSeriesSorted(t *testing.T) {
	db := viewDB()
	snap := db.Freeze()
	ss := snap.Series(nil, "penn", 2, topo.V4)
	if len(ss) != 3 {
		t.Fatalf("%d samples", len(ss))
	}
	for i := 1; i < len(ss); i++ {
		if ss[i].Round < ss[i-1].Round {
			t.Fatalf("snapshot series unsorted: %+v", ss)
		}
	}
}

// TestSnapshotUnaffectedByLaterWrites: rows appended after Freeze are
// invisible to the snapshot, and do not corrupt what it captured.
func TestSnapshotUnaffectedByLaterWrites(t *testing.T) {
	db := viewDB()
	snap := db.Freeze()
	beforeSamples := len(snap.Series(nil, "penn", 1, topo.V4))

	for r := 5; r < 40; r++ {
		db.AddSample("penn", 1, topo.V4, Sample{Date: sampleDate, Round: r, MeanSpeed: 99, CIOK: true})
	}
	db.AddPath("penn", topo.V6, 3, 9, []int{9, 3})

	ss := snap.Series(nil, "penn", 1, topo.V4)
	if len(ss) != beforeSamples {
		t.Fatalf("snapshot sees %d samples, froze %d", len(ss), beforeSamples)
	}
	for _, s := range ss {
		if s.MeanSpeed == 99 {
			t.Fatal("post-freeze sample leaked into snapshot")
		}
	}
	if got := snap.LatestPath("penn", topo.V6, 3); !reflect.DeepEqual(got, []int{9, 8, 3}) {
		t.Fatalf("post-freeze path visible: %v", got)
	}
}

// seriesDump lists every (site, family) series of a vantage in the
// order ForEachSeries visits them.
func seriesDump(each func(Vantage, func(alexa.SiteID, topo.Family, []Sample)), v Vantage) []string {
	var out []string
	each(v, func(site alexa.SiteID, fam topo.Family, ss []Sample) {
		out = append(out, fmt.Sprintf("%d/%v:%v", site, fam, ss))
	})
	return out
}

// TestFreezeMatchesLiveSeries: Freeze walks the series each sample
// stripe has minted, so it must read the series the writes made, over
// dense ids of both ranges, overflow ids, and ids a later Reserve
// covers, with rounds written out of order and dates that do not
// follow them — and samples or series added after Freeze, even across
// a further Reserve, must stay invisible.
func TestFreezeMatchesLiveSeries(t *testing.T) {
	const extBase = 1 << 12
	vantages := []Vantage{"penn", "lu"}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		db.Reserve(64, extBase, 64)
		wrote := map[Vantage]sampleRows{"penn": {}, "lu": {}}
		add := func(n int) {
			for k := 0; k < n; k++ {
				site := alexa.SiteID(rng.Intn(64)) // dense main
				switch rng.Intn(4) {
				case 1:
					site += extBase // dense ext
				case 2:
					site += 64 // overflow until the Reserve below
				case 3:
					site += 1 << 20 // overflow throughout
				}
				v, key := vantages[rng.Intn(2)], siteFamKey{site, famBoth[rng.Intn(2)]}
				s := Sample{
					Round:     rng.Intn(12), // out of order at times
					Date:      time.Unix(int64(rng.Intn(6)), 0),
					PageBytes: rng.Intn(5000),
					Downloads: 1 + rng.Intn(5),
					MeanSpeed: rng.Float64(),
					CIOK:      rng.Intn(3) > 0,
				}
				db.AddSample(v, key.site, key.fam, s)
				wrote[v][key] = append(wrote[v][key], s)
			}
		}
		add(120)
		db.Reserve(128, extBase, 64) // covers ids [64, 128)
		add(120)

		snap := db.Freeze()
		want := map[Vantage][]string{}
		for _, v := range vantages {
			want[v] = wrote[v].dump()
		}
		check := func(when string) {
			t.Helper()
			for _, v := range vantages {
				var got []string
				var buf []Sample
				for _, site := range snap.SampledSites(v) {
					for _, fam := range famBoth {
						if buf = snap.Series(buf[:0], v, site, fam); len(buf) > 0 {
							got = append(got, fmt.Sprintf("%d/%v:%v", site, fam, buf))
						}
					}
				}
				if !reflect.DeepEqual(got, want[v]) {
					t.Fatalf("seed %d %s, %s: snapshot reads\n%v\nthe writes made\n%v", seed, when, v, got, want[v])
				}
				if dump := seriesDump(snap.ForEachSeries, v); !reflect.DeepEqual(dump, want[v]) {
					t.Fatalf("seed %d %s, %s: Snapshot.ForEachSeries reads\n%v", seed, when, v, dump)
				}
			}
		}
		check("at freeze")

		add(120) // appends to frozen series, and may create new ones
		for _, site := range []alexa.SiteID{200, extBase + 100, 1 << 21} {
			for _, v := range vantages {
				db.AddSample(v, site, topo.V6, Sample{Date: sampleDate, Round: 3, MeanSpeed: 99, CIOK: true})
			}
		}
		db.Reserve(256, extBase, 128) // covers site 200
		check("after later writes")
	}
}
