package store

import (
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
			if got := snap.Series(v, site, fam); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s site %d fam %v: %+v vs %+v", v, site, fam, got, want)
			}
			if snap.SeriesLen(v, site, fam) != len(want) {
				t.Fatalf("SeriesLen mismatch for %s site %d fam %v", v, site, fam)
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
	if row, ok := snap.Site(2); !ok || row.Host != "b" {
		t.Fatalf("Site(2): %+v ok=%v", row, ok)
	}
	if _, ok := snap.Site(99); ok {
		t.Fatal("Site(99) present")
	}
	// Unknown vantage: empty results, no panic.
	if snap.SampledSites("nowhere") != nil || snap.Series("nowhere", 1, topo.V4) != nil ||
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
	if luRows := snap.SeriesLen("lu", 1, topo.V4); seriesRows != sampleRows-luRows {
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
	ss := snap.Series("penn", 2, topo.V4)
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
	beforeDNS := len(db.DNS("penn"))
	beforeSamples := snap.SeriesLen("penn", 1, topo.V4)

	for r := 5; r < 40; r++ {
		db.AddDNS("penn", DNSRow{Site: 1, Round: r, HasA: true})
		db.AddSample("penn", 1, topo.V4, Sample{Round: r, MeanSpeed: 99, CIOK: true})
	}
	db.AddPath("penn", topo.V6, 3, 9, []int{9, 3})

	n := 0
	snap.ForEachDNS("penn", func(DNSRow) { n++ })
	if n != beforeDNS {
		t.Fatalf("snapshot sees %d DNS rows, froze %d", n, beforeDNS)
	}
	ss := snap.Series("penn", 1, topo.V4)
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
