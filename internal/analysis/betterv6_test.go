package analysis

import (
	"testing"

	"v6web/internal/alexa"
	"v6web/internal/store"
	"v6web/internal/topo"
)

// betterDB builds 10 kept sites: 4 SP (2 better-v6), 4 DP (0 better),
// 2 DL (1 better).
func betterDB() *store.DB {
	db := store.NewDB()
	const v = "penn"
	db.AddPath(v, topo.V4, 100, 0, []int{0, 100})
	db.AddPath(v, topo.V6, 100, 0, []int{0, 100})
	db.AddPath(v, topo.V4, 200, 0, []int{0, 1, 200})
	db.AddPath(v, topo.V6, 200, 0, []int{0, 2, 200})
	db.AddPath(v, topo.V4, 300, 0, []int{0, 300})
	db.AddPath(v, topo.V6, 301, 0, []int{0, 301})

	add := func(id alexa.SiteID, v4AS, v6AS int, speedV4, speedV6 float64) {
		db.PutSite(store.SiteRow{Site: id, Host: alexa.HostName(id), FirstRank: int(id), V4AS: v4AS, V6AS: v6AS})
		for r := 0; r < 24; r++ {
			db.AddSample(v, id, topo.V4, store.Sample{Date: sampleDate, Round: r, MeanSpeed: speedV4, CIOK: true})
			db.AddSample(v, id, topo.V6, store.Sample{Date: sampleDate, Round: r, MeanSpeed: speedV6, CIOK: true})
		}
	}
	add(1, 100, 100, 50, 52) // SP better
	add(2, 100, 100, 50, 51) // SP better
	add(3, 100, 100, 50, 49)
	add(4, 100, 100, 50, 48)
	add(5, 200, 200, 50, 40) // DP
	add(6, 200, 200, 50, 41)
	add(7, 200, 200, 50, 42)
	add(8, 200, 200, 50, 39)
	add(9, 300, 301, 50, 55) // DL better
	add(10, 300, 301, 50, 30)
	return db
}

func TestBetterV6Profile(t *testing.T) {
	va := AnalyzeSnapshot(betterDB().Freeze(), "penn", DefaultThresholds())
	p := va.BetterV6()
	if p.Total != 10 || p.Better != 3 {
		t.Fatalf("profile: %+v", p)
	}
	if p.BetterShare[SP] < 0.66 || p.BetterShare[SP] > 0.67 {
		t.Fatalf("SP better share %v", p.BetterShare[SP])
	}
	if p.BetterShare[DP] != 0 {
		t.Fatalf("DP better share %v", p.BetterShare[DP])
	}
	if p.BaseShare[SP] != 0.4 || p.BaseShare[DP] != 0.4 || p.BaseShare[DL] != 0.2 {
		t.Fatalf("base shares: %+v", p.BaseShare)
	}
	// Max deviation: DP 0 vs 0.4 -> 0.4.
	if p.MaxDeviation < 0.39 || p.MaxDeviation > 0.41 {
		t.Fatalf("max deviation %v", p.MaxDeviation)
	}
}

func TestBetterV6Empty(t *testing.T) {
	va := AnalyzeSnapshot(store.NewDB().Freeze(), "penn", DefaultThresholds())
	p := va.BetterV6()
	if p.Total != 0 || p.Better != 0 || p.MaxDeviation != 0 {
		t.Fatalf("empty profile: %+v", p)
	}
}
