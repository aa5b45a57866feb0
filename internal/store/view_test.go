package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// viewDB builds a small two-vantage database through the public write
// API, with deliberately out-of-order sample inserts at one site so
// the snapshot's sort-on-capture arm is exercised.
func viewDB() *DB {
	db := NewDB()
	db.PutSite(SiteRow{Site: 1, Host: "a", FirstRank: 10, V4AS: 3, V6AS: 3})
	db.PutSite(SiteRow{Site: 2, Host: "b", FirstRank: 20, V4AS: 4, V6AS: 5})
	for r := 0; r < 5; r++ {
		db.AddDNS("penn", DNSRow{Site: 1, Round: r, HasA: true, HasAAAA: true})
		db.AddDNS("penn", DNSRow{Site: 2, Round: r, HasA: true, HasAAAA: r > 1})
		for _, fam := range []topo.Family{topo.V4, topo.V6} {
			db.AddSample("penn", 1, fam, Sample{Round: r, Date: time.Unix(int64(r), 0), MeanSpeed: float64(10 + r), CIOK: true})
		}
	}
	// Out-of-order series: rounds 3, 1, 2 through the raw API.
	for _, r := range []int{3, 1, 2} {
		db.AddSample("penn", 2, topo.V4, Sample{Round: r, MeanSpeed: float64(r), CIOK: true})
	}
	db.AddPath("penn", topo.V6, 3, 0, []int{9, 7, 3})
	db.AddPath("penn", topo.V6, 3, 2, []int{9, 8, 3})
	db.AddPath("penn", topo.V4, 3, 0, []int{9, 3})
	db.AddSample("lu", 1, topo.V4, Sample{Round: 0, MeanSpeed: 1, CIOK: true})
	return db
}

// TestSnapshotMatchesCopyingGetters: a frozen view reads the series
// the live copying iterator, DB.ForEachSeries, returns.
func TestSnapshotMatchesCopyingGetters(t *testing.T) {
	db := viewDB()
	snap := db.Freeze()

	for _, v := range []Vantage{"penn", "lu"} {
		var sites []alexa.SiteID
		db.ForEachSeries(v, func(site alexa.SiteID, fam topo.Family, want []Sample) {
			if len(sites) == 0 || sites[len(sites)-1] != site {
				sites = append(sites, site)
			}
			if got := snap.Series(nil, v, site, fam); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s site %d fam %v: %+v vs %+v", v, site, fam, got, want)
			}
		})
		if got := snap.SampledSites(v); !reflect.DeepEqual(got, sites) {
			t.Fatalf("%s SampledSites: %v vs %v", v, got, sites)
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

	seriesRows := 0
	db.ForEachSeries("penn", func(site alexa.SiteID, fam topo.Family, ss []Sample) {
		seriesRows += len(ss)
	})
	_, _, sampleRows, _ := db.Counts()
	snap := db.Freeze()
	if luRows := len(snap.Series(nil, "lu", 1, topo.V4)); seriesRows != sampleRows-luRows {
		t.Fatalf("ForEachSeries visited %d sample rows, want %d", seriesRows, sampleRows-luRows)
	}

	// The snapshot's site-ordered variant visits the same rows.
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
		db.AddSample("penn", 1, topo.V4, Sample{Round: r, MeanSpeed: 99, CIOK: true})
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
// stripe has created rather than the reserved slots, so it must read
// what DB.ForEachSeries reads over dense ids of both ranges, overflow
// ids, and overflow ids a later Reserve migrates into dense slots —
// and samples or series added after Freeze, even across a further
// migrating Reserve, must stay invisible.
func TestFreezeMatchesLiveSeries(t *testing.T) {
	const extBase = 1 << 12
	vantages := []Vantage{"penn", "lu"}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		db.Reserve(64, extBase, 64)
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
				db.AddSample(vantages[rng.Intn(2)], site, famBoth[rng.Intn(2)], Sample{
					Round:     rng.Intn(12), // out of order at times
					Date:      time.Unix(int64(rng.Intn(6)), 0),
					PageBytes: rng.Intn(5000),
					Downloads: 1 + rng.Intn(5),
					MeanSpeed: rng.Float64(),
					CIOK:      rng.Intn(3) > 0,
				})
			}
		}
		add(120)
		db.Reserve(128, extBase, 64) // migrates ids [64, 128) to dense slots
		add(120)

		snap := db.Freeze()
		want := map[Vantage][]string{}
		for _, v := range vantages {
			want[v] = seriesDump(db.ForEachSeries, v)
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
					t.Fatalf("seed %d %s, %s: snapshot reads\n%v\nlive reads\n%v", seed, when, v, got, want[v])
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
				db.AddSample(v, site, topo.V6, Sample{Round: 3, MeanSpeed: 99, CIOK: true})
			}
		}
		db.Reserve(256, extBase, 128) // migrates site 200's new series
		check("after later writes")
	}
}
