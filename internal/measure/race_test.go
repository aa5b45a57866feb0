package measure

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"v6web/internal/alexa"
	"v6web/internal/store"
)

// TestConcurrentRoundsRace drives the lock-free round machinery hard
// under -race: two monitors sharing one DB (distinct vantages, as in
// the study) each run several rounds over an overlapping site
// population, concurrently.
func TestConcurrentRoundsRace(t *testing.T) {
	e := newSimEnv(t, 200, 9)
	e.cat.Reserve(4000, 1<<30, 0)
	db := store.NewDB()

	refs := make([]SiteRef, 0, 3000)
	for id := alexa.SiteID(0); id < 3000; id++ {
		refs = append(refs, SiteRef{ID: id, FirstRank: int(id) + 1})
	}

	newMon := func(v store.Vantage) *Monitor {
		cfg := DefaultConfig(v, 7)
		cfg.Workers = 8
		cfg.MaxDownloads = 6
		mon, err := NewMonitor(cfg, e.fetch, db)
		if err != nil {
			t.Fatal(err)
		}
		return mon
	}

	var wg sync.WaitGroup
	for _, v := range []store.Vantage{"alpha", "beta"} {
		wg.Add(1)
		go func(mon *Monitor) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				date := e.tl.End.AddDate(0, 0, -7*(3-r))
				st := mon.RunRound(r, date, 0.9, refs)
				if st.Sites != len(refs) {
					t.Errorf("round %d monitored %d sites, want %d", r, st.Sites, len(refs))
				}
			}
		}(newMon(v))
	}
	wg.Wait()

	for _, v := range []store.Vantage{"alpha", "beta"} {
		if rows := db.DNS(v); len(rows) != 3*len(refs) {
			t.Fatalf("%s: %d DNS rows, want %d", v, len(rows), 3*len(refs))
		}
	}
}

// TestRunRoundDeterministicAcrossWorkerCounts pins the per-(seed,
// round, site) RNG derivation: results must not depend on how many
// workers split the round, how sites land on them, or in what order the
// caller lists the sites. The round spans many dispatch blocks at every
// worker count, and runs over the same refs in id order (core's tracked
// set) and in rank order (V6DayParticipants' order), each compared
// value by value against the id-ordered Workers=1 run.
func TestRunRoundDeterministicAcrossWorkerCounts(t *testing.T) {
	e := newSimEnv(t, 200, 11)
	const n = 6000
	e.cat.Reserve(n, 0, 0)
	perm := rand.New(rand.NewSource(11)).Perm(n)
	byID := make([]SiteRef, n)
	byRank := make([]SiteRef, n)
	for id := range byID {
		ref := SiteRef{ID: alexa.SiteID(id), FirstRank: perm[id] + 1}
		byID[id] = ref
		byRank[perm[id]] = ref
	}
	date := e.tl.End
	run := func(refs []SiteRef, workers int) (RoundStats, *store.DB) {
		db := store.NewDB()
		// Half the ids are dense, the rest go through the overflow maps:
		// both store write paths take part in the per-block flushes.
		db.Reserve(n/2, 0, 0)
		cfg := DefaultConfig("penn", 5)
		cfg.Workers = workers
		cfg.MaxDownloads = 8
		mon, err := NewMonitor(cfg, e.fetch, db)
		if err != nil {
			t.Fatal(err)
		}
		st := mon.RunRound(2, date, 0.9, refs)
		return st, db
	}
	want, wantDB := run(byID, 1)
	if blocks := n / blockSize(n, 1); blocks < 4 {
		t.Fatalf("round spans %d blocks at Workers=1, want several", blocks)
	}
	wantDNS, wantSiteRows := wantDB.DNS("penn"), wantDB.Sites()
	_, _, _, wantPaths := wantDB.Counts()
	if want.Dual == 0 || want.Measured == 0 || len(wantDNS) != n || len(wantSiteRows) != n {
		t.Fatalf("degenerate reference round: %+v, %d DNS rows, %d site rows", want, len(wantDNS), len(wantSiteRows))
	}
	wantSites := wantDB.SampledSites("penn")
	for _, order := range []struct {
		name string
		refs []SiteRef
	}{{"id order", byID}, {"rank order", byRank}} {
		for _, workers := range []int{1, 2, 7, 25} {
			got, gotDB := run(order.refs, workers)
			if got != want {
				t.Fatalf("%s, workers=%d: stats %+v, want %+v", order.name, workers, got, want)
			}
			if gotDNS := gotDB.DNS("penn"); !slices.Equal(gotDNS, wantDNS) {
				t.Fatalf("%s, workers=%d: DNS rows differ from Workers=1", order.name, workers)
			}
			if gotSiteRows := gotDB.Sites(); !slices.Equal(gotSiteRows, wantSiteRows) {
				t.Fatalf("%s, workers=%d: site rows differ from Workers=1", order.name, workers)
			}
			if _, _, _, paths := gotDB.Counts(); paths != wantPaths {
				t.Fatalf("%s, workers=%d: %d path snapshots, want %d", order.name, workers, paths, wantPaths)
			}
			// Value-level comparison: every stored sample must match, not
			// just table sizes — this is what pins the per-(seed, round,
			// site) RNG derivation against worker-dependent regressions.
			gotSites := gotDB.SampledSites("penn")
			if !slices.Equal(gotSites, wantSites) {
				t.Fatalf("%s, workers=%d: sampled sites differ from Workers=1", order.name, workers)
			}
			for _, id := range wantSites {
				for _, fam := range famBoth {
					if gs, ws := gotDB.Samples("penn", id, fam), wantDB.Samples("penn", id, fam); !slices.Equal(gs, ws) {
						t.Fatalf("%s, workers=%d: site %d %v samples %+v, want %+v", order.name, workers, id, fam, gs, ws)
					}
				}
			}
		}
	}
}

// TestEnsureSiteMatchesPutSite checks the write-skipping batched site
// upsert leaves the same table PutSite would, applied row by row in
// batch order: across the adoption flip (v6 -1 -> AS), with an id
// repeated within one batch on both sides of the flip, and for ids
// outside the reserved dense range (the overflow map).
func TestEnsureSiteMatchesPutSite(t *testing.T) {
	a, b := store.NewDB(), store.NewDB()
	// Ids [0, 40) are dense; [40, 50) live in the overflow map.
	a.Reserve(40, 0, 0)
	b.Reserve(40, 0, 0)
	for round := 0; round < 4; round++ {
		var batch []store.CanonicalSite
		for id := alexa.SiteID(0); id < 50; id++ {
			v6 := -1
			if round > 1 && id%3 == 0 {
				v6 = 42 // adoption flips the row mid-study
			}
			batch = append(batch, store.CanonicalSite{Site: id, FirstRank: int(id) + 1, V4AS: 7, V6AS: v6})
			if round == 1 && id%5 == 0 {
				// The same site again, now adopted: the batch holds both
				// sides of the flip and the later view must win.
				batch = append(batch, store.CanonicalSite{Site: id, FirstRank: int(id) + 1, V4AS: 7, V6AS: 42})
			}
		}
		for _, v := range batch {
			a.PutSite(store.SiteRow{Site: v.Site, Host: HostName(v.Site), FirstRank: v.FirstRank, V4AS: v.V4AS, V6AS: v.V6AS})
		}
		b.EnsureCanonicalSites(batch)
		ra, rb := a.Sites(), b.Sites()
		if len(ra) != 50 || len(ra) != len(rb) {
			t.Fatalf("round %d: row counts %d vs %d, want 50", round, len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("round %d: row %d differs: %+v vs %+v", round, i, ra[i], rb[i])
			}
		}
	}
}
