package measure

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/netsim"
	"v6web/internal/store"
	"v6web/internal/topo"
)

// perDownload is one download by the per-download formula: the
// catalogue lookup, the route, the round speed, one sampled speed and
// the download time, all recomputed for every call.
func perDownload(f *SimFetcher, ref SiteRef, fam topo.Family, round int, tFrac float64, rng *rand.Rand) (time.Duration, error) {
	site := f.Cat.Site(ref.ID, int(ref.FirstRank))
	dst, page := site.V4AS, site.PageV4
	if fam == topo.V6 {
		dst, page = site.V6AS, site.PageV6
		if dst < 0 {
			return 0, errors.New("no AAAA")
		}
	}
	path, pp := f.route(dst, fam, round)
	if path == nil {
		return 0, errors.New("unreachable")
	}
	roundSpeed := f.Model.RoundSpeedPerf(f.Model.VantageQuality(f.VantageAS), site, pp, fam, tFrac, round)
	speed := f.Model.SampleSpeed(roundSpeed, rng)
	if speed <= 0 {
		return 0, errors.New("zero speed")
	}
	return netsim.DownloadTimeSetup(page, speed, f.Model.SetupTime(pp)), nil
}

// TestConcurrentPrepareFetchMatchesPerDownload: one Prepare followed
// by k Fetch calls returns, bit for bit, the download times k calls of
// the per-download formula return from the same seeded RNG, and leaves
// the RNG at the same next draw. The cases cover random sites, both
// families, and the rounds on both sides of each scheduled path change
// (the change's round reads the lazily computed alternative path). A
// site without AAAA, and every v6 site seen from a vantage without
// IPv6 (its destinations are unreachable over v6), fail at Prepare
// without drawing. A round's workers share the fetcher, so the cases
// run on four goroutines.
func TestConcurrentPrepareFetchMatchesPerDownload(t *testing.T) {
	e := newSimEnv(t, 600, 21)
	g := e.cat.Graph()
	v4Only := -1
	for i := 0; i < g.N() && v4Only < 0; i++ {
		if !g.AS(i).V6 {
			v4Only = i
		}
	}
	if v4Only < 0 {
		t.Fatal("no AS without IPv6 to serve as a vantage")
	}
	noV6, err := NewSimFetcher(v4Only, e.cat, e.model, 0.08, 30, 21)
	if err != nil {
		t.Fatal(err)
	}
	type fetchCase struct {
		f     *SimFetcher
		ref   SiteRef
		fam   topo.Family
		round int
	}
	var cases []fetchCase
	changes, noAAAA, unreachable := 0, 0, 0
	pick := rand.New(rand.NewSource(21))
	for id := alexa.SiteID(0); id < 3000; id++ {
		ref := SiteRef{ID: id, FirstRank: int32(1 + pick.Intn(100000))}
		site := e.cat.Site(ref.ID, int(ref.FirstRank))
		for _, fam := range famBoth {
			dst := site.V4AS
			if fam == topo.V6 {
				dst = site.V6AS
			}
			switch {
			case dst < 0:
				noAAAA++
				cases = append(cases, fetchCase{e.fetch, ref, fam, pick.Intn(30)})
				continue
			case e.fetch.changeAt[fam][dst] >= 0:
				cr := int(e.fetch.changeAt[fam][dst])
				changes++
				cases = append(cases, fetchCase{e.fetch, ref, fam, cr - 1}, fetchCase{e.fetch, ref, fam, cr})
			case id%7 == 0:
				cases = append(cases, fetchCase{e.fetch, ref, fam, pick.Intn(30)})
			}
			if fam == topo.V6 && id%5 == 0 {
				unreachable++
				cases = append(cases, fetchCase{noV6, ref, fam, pick.Intn(30)})
			}
		}
	}
	if changes == 0 || noAAAA == 0 || unreachable == 0 {
		t.Fatalf("degenerate cases: %d path changes, %d sites without AAAA, %d unreachable", changes, noAAAA, unreachable)
	}

	const k = 5
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(cases); i += 4 {
				c := cases[i]
				tFrac := float64(c.round) / 29
				seed := int64(i)
				perRNG, splitRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				var want [k]time.Duration
				var wantErr error
				for j := range want {
					if want[j], wantErr = perDownload(c.f, c.ref, c.fam, c.round, tFrac, perRNG); wantErr != nil {
						break
					}
				}
				d, err := c.f.Prepare(c.ref, c.fam, c.round, tFrac)
				if (err != nil) != (wantErr != nil) {
					errs <- fmt.Errorf("site %d %v round %d: Prepare error %v, per-download error %v", c.ref.ID, c.fam, c.round, err, wantErr)
					return
				}
				if err != nil {
					if splitRNG.Int63() != rand.New(rand.NewSource(seed)).Int63() || perRNG.Int63() != rand.New(rand.NewSource(seed)).Int63() {
						errs <- fmt.Errorf("site %d %v round %d: a failed download drew from the RNG", c.ref.ID, c.fam, c.round)
						return
					}
					continue
				}
				for j := range want {
					res, err := c.f.Fetch(d, splitRNG)
					if err != nil || res.Elapsed != want[j] {
						errs <- fmt.Errorf("site %d %v round %d download %d: %v, %v; want %v", c.ref.ID, c.fam, c.round, j, res.Elapsed, err, want[j])
						return
					}
				}
				if splitRNG.Int63() != perRNG.Int63() {
					errs <- fmt.Errorf("site %d %v round %d: the RNGs' next draws differ", c.ref.ID, c.fam, c.round)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// countingFetcher counts each site's Prepare and Fetch calls over a
// SimFetcher.
type countingFetcher struct {
	*SimFetcher
	mu       sync.Mutex
	prepares map[alexa.SiteID]int
	fetches  map[alexa.SiteID]int
}

func (c *countingFetcher) Prepare(ref SiteRef, fam topo.Family, round int, tFrac float64) (Download, error) {
	c.mu.Lock()
	c.prepares[ref.ID]++
	c.mu.Unlock()
	return c.SimFetcher.Prepare(ref, fam, round, tFrac)
}

func (c *countingFetcher) Fetch(d Download, rng *rand.Rand) (FetchResult, error) {
	c.mu.Lock()
	c.fetches[d.Ref.ID]++
	c.mu.Unlock()
	return c.SimFetcher.Fetch(d, rng)
}

// TestRunRoundPreparesEachFamilyOnce counts the fetcher's calls per
// site over rounds mixing single-stack, dual-stack and identical
// sites: a dual-stack visit prepares each family once and never a
// single-stack one, and an identical site's visit fetches twice for
// the identity check plus once per download its two samples record.
func TestRunRoundPreparesEachFamilyOnce(t *testing.T) {
	e := newSimEnv(t, 600, 22)
	cf := &countingFetcher{SimFetcher: e.fetch}
	db := store.NewDB()
	cfg := DefaultConfig("penn", 22)
	cfg.Workers = 4
	mon, err := NewMonitor(cfg, cf, db)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]SiteRef, 0, 400)
	for id := alexa.SiteID(0); id < 400; id++ {
		refs = append(refs, SiteRef{ID: id, FirstRank: int32(id) + 1})
	}
	var single, dual, identical int
	for round := 0; round < 3; round++ {
		cf.prepares, cf.fetches = make(map[alexa.SiteID]int), make(map[alexa.SiteID]int)
		st, _ := mon.RunRound(round, e.tl.End.AddDate(0, 0, -7*(3-round)), 0.9, refs)
		if st.FetchFails != 0 {
			t.Fatalf("round %d: %d fetch failures", round, st.FetchFails)
		}
		dns := make(map[alexa.SiteID]store.DNSRow)
		for _, row := range db.DNS("penn") {
			if row.Round == round {
				dns[row.Site] = row
			}
		}
		snap := db.Freeze()
		for _, ref := range refs {
			row := dns[ref.ID]
			wantPrepares, wantFetches := 0, 0
			switch {
			case !row.HasAAAA:
				single++
			case !row.Identical:
				dual++
				wantPrepares, wantFetches = 2, 2
			default:
				identical++
				wantPrepares, wantFetches = 2, 2
				for _, fam := range famBoth {
					for _, s := range snap.Series(nil, "penn", ref.ID, fam) {
						if s.Round == round {
							wantFetches += s.Downloads
						}
					}
				}
			}
			if p, f := cf.prepares[ref.ID], cf.fetches[ref.ID]; p != wantPrepares || f != wantFetches {
				t.Fatalf("round %d site %d (%+v): %d prepares and %d fetches, want %d and %d", round, ref.ID, row, p, f, wantPrepares, wantFetches)
			}
		}
	}
	if single == 0 || dual == 0 || identical == 0 {
		t.Fatalf("degenerate rounds: %d single-stack, %d dual-stack non-identical and %d identical visits", single, dual, identical)
	}
}
