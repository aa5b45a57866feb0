package analysis

import (
	"testing"

	"v6web/internal/store"
	"v6web/internal/topo"
)

func TestV6FasterRoundOdds(t *testing.T) {
	db := store.NewDB()
	const v = "penn"
	db.PutSite(store.SiteRow{Site: 1, FirstRank: 1, V4AS: 100, V6AS: 100})
	db.AddPath(v, topo.V4, 100, 0, []int{0, 100})
	db.AddPath(v, topo.V6, 100, 0, []int{0, 100})
	// 24 rounds: v6 faster in exactly 6 of them.
	for r := 0; r < 24; r++ {
		v6 := 49.0
		if r < 6 {
			v6 = 52.0
		}
		db.AddSample(v, 1, topo.V4, store.Sample{Round: r, MeanSpeed: 50, CIOK: true})
		db.AddSample(v, 1, topo.V6, store.Sample{Round: r, MeanSpeed: v6, CIOK: true})
	}
	va := AnalyzeSnapshot(db.Freeze(), v, DefaultThresholds())
	if len(va.KeptSites()) != 1 {
		t.Fatalf("kept %d", len(va.KeptSites()))
	}
	// Site-mean metric: v6 mean 49.75 < 50 -> 0, though v6 is faster
	// in a quarter of the rounds.
	if s := va.V6FasterOdds(nil); s != 0 {
		t.Fatalf("mean odds %v, want 0", s)
	}
}

func TestV6FasterMetricsEmpty(t *testing.T) {
	db := store.NewDB()
	va := AnalyzeSnapshot(db.Freeze(), "penn", DefaultThresholds())
	if va.V6FasterOdds(nil) != 0 {
		t.Fatal("empty study produced nonzero odds")
	}
}
