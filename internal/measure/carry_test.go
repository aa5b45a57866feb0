package measure

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"v6web/internal/alexa"
	"v6web/internal/store"
)

// TestSiteRefSize pins SiteRef at 16 bytes: core keeps one per tracked
// site, over a million at paper scale, and adding Until must not have
// widened it.
func TestSiteRefSize(t *testing.T) {
	if n := unsafe.Sizeof(SiteRef{}); n != 16 {
		t.Fatalf("SiteRef is %d bytes, want 16", n)
	}
}

// adoptionKind classifies a site by the adoption regime alexa.Adoption
// drew for it, and CDN-hosted adopters (DL sites) apart.
func adoptionKind(e *simEnv, id alexa.SiteID, rank int) string {
	when, ok := e.cat.Adoption().Adopts(id, rank)
	switch {
	case !ok:
		return "never"
	case e.cat.Site(id, rank).CDN:
		return "cdn"
	case when.Before(e.tl.Start):
		return "pre-study"
	case when.Equal(e.tl.IANA):
		return "iana"
	case when.Equal(e.tl.V6Day):
		return "v6day"
	case when.Before(e.tl.V6Day):
		return "gradual"
	}
	return "late"
}

// TestResolveFixedOnEachSideOfAdoption pins the fact a carried visit
// rests on: SimFetcher.Resolve's answer, and the site view the monitor
// writes from it, are the same at any two dates on the same side of a
// site's adoption instant. It draws sites of every adoption kind —
// never-adopting, pre-study, IANA, gradual, World IPv6 Day, late and
// CDN-hosted — and dates before, at and after the instant, spread over
// the study and beyond it.
func TestResolveFixedOnEachSideOfAdoption(t *testing.T) {
	e := newSimEnv(t, 600, 31)
	rng := rand.New(rand.NewSource(31))
	lo, hi := e.tl.Start.AddDate(0, -2, 0), e.tl.End.AddDate(0, 2, 0)
	randomDate := func(from, to time.Time) time.Time {
		return from.Add(time.Duration(rng.Int63n(int64(to.Sub(from)) + 1)))
	}
	type answer struct {
		hasA, hasAAAA bool
		view          store.CanonicalSite
	}
	resolve := func(ref SiteRef, date time.Time) answer {
		hasA, hasAAAA, v4, v6, err := e.fetch.Resolve(ref, date)
		if err != nil {
			t.Fatalf("site %d at %v: %v", ref.ID, date, err)
		}
		return answer{hasA, hasAAAA, store.CanonicalSite{Site: ref.ID, FirstRank: int(ref.FirstRank), V4AS: v4, V6AS: v6}}
	}
	const perKind = 12
	kinds := make(map[string]int)
	for id := alexa.SiteID(0); len(kinds) < 7 || minCount(kinds) < perKind; id++ {
		if id >= 400000 {
			t.Fatalf("kinds drawn %v after %d sites, want %d of each of 7", kinds, id, perKind)
		}
		rank := 1 + rng.Intn(3000)
		kind := adoptionKind(e, id, rank)
		if kinds[kind] >= perKind {
			continue
		}
		kinds[kind]++
		ref := SiteRef{ID: id, FirstRank: int32(rank)}
		when, adopts := e.cat.Adoption().Adopts(id, rank)
		if !adopts {
			when = hi.AddDate(1, 0, 0)
		}
		sides := [][2]time.Time{{lo, when.Add(-time.Nanosecond)}, {when, hi}}
		for side, span := range sides {
			if span[1].Before(span[0]) {
				continue
			}
			dates := []time.Time{span[0], span[1]}
			for k := 0; k < 4; k++ {
				dates = append(dates, randomDate(span[0], span[1]))
			}
			first := resolve(ref, dates[0])
			if first.hasAAAA != (side == 1) {
				t.Fatalf("%s site %d at %v: AAAA %v on side %d of its adoption at %v", kind, id, dates[0], first.hasAAAA, side, when)
			}
			for _, d := range dates[1:] {
				if got := resolve(ref, d); got != first {
					t.Fatalf("%s site %d: Resolve at %v gives %+v, at %v %+v: same side of its adoption at %v", kind, id, d, got, dates[0], first, when)
				}
			}
		}
	}
}

func minCount(m map[string]int) int {
	n := math.MaxInt
	for _, c := range m {
		n = min(n, c)
	}
	return n
}

// resolveCounter counts Resolve calls per site over a SimFetcher.
type resolveCounter struct {
	*SimFetcher
	mu    sync.Mutex
	calls map[alexa.SiteID]int
}

func (c *resolveCounter) Resolve(ref SiteRef, date time.Time) (bool, bool, int, int, error) {
	c.mu.Lock()
	c.calls[ref.ID]++
	c.mu.Unlock()
	return c.SimFetcher.Resolve(ref, date)
}

// untilOf is the Until core fills for ref over the round dates: the
// first round at or past its adoption instant, or math.MaxInt32.
func untilOf(e *simEnv, ref SiteRef, dates []time.Time) int32 {
	h := e.cat.HostingOf(ref.ID, int(ref.FirstRank))
	for r, d := range dates {
		if h.DualAtUnix(d.UnixNano()) {
			return int32(r)
		}
	}
	return math.MaxInt32
}

// saveAndLoad round-trips db through a snapshot file.
func saveAndLoad(t *testing.T, db *store.DB) *store.DB {
	t.Helper()
	base := filepath.Join(t.TempDir(), "db")
	if err := db.SaveBinary(base+store.BinaryExt, store.BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Load(base)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// snapBytes is db's SaveBinary output.
func snapBytes(t *testing.T, db *store.DB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db"+store.BinaryExt)
	if err := db.SaveBinary(path, store.BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRunRoundCarryMatchesQuery runs a SimFetcher monitor over the
// same weekly rounds twice, once with every ref's Until filled as core
// fills it and once with every Until 0, so that every visit queries.
// The rounds span the IANA jump, World IPv6 Day and the late
// adopters, take in entrants between rounds, skip one round, and
// continue one database after a SaveBinary and Load. Each round must
// give equal RoundStats (Carried apart), equal destination ASes and
// equal SaveBinary bytes; the filled run must resolve exactly the
// sites a query is owed to — a round's first visit of a site (the
// first round, entrants, every site after the skipped round) and the
// sites at or past their adoption round — and carry the rest.
func TestRunRoundCarryMatchesQuery(t *testing.T) {
	e := newSimEnv(t, 600, 19)
	const rounds, skipped, loadAt = 35, 12, 20
	dates := make([]time.Time, rounds)
	for r := range dates {
		dates[r] = e.tl.Start.AddDate(0, 0, 7*r)
	}
	// Top ranks adopt most, so a tenth of the sites do.
	newRef := func(id alexa.SiteID) SiteRef { return SiteRef{ID: id, FirstRank: int32(1 + id%40)} }
	var filled, plain []SiteRef
	grow := func(n int) {
		for k := 0; k < n; k++ {
			ref := newRef(alexa.SiteID(len(filled)))
			plain = append(plain, ref)
			ref.Until = untilOf(e, ref, dates)
			filled = append(filled, ref)
		}
	}
	grow(1500)
	cfg := DefaultConfig("penn", 19)
	cfg.Workers = 4
	counter := &resolveCounter{SimFetcher: e.fetch}
	dbFilled, dbPlain := store.NewDB(), store.NewDB()
	newMonitors := func() (*Monitor, *Monitor) {
		a, err := NewMonitor(cfg, counter, dbFilled)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewMonitor(cfg, e.fetch, dbPlain)
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	monFilled, monPlain := newMonitors()
	seen := make(map[alexa.SiteID]bool)
	var carriedTotal, adopting int
	for r := 0; r < rounds; r++ {
		if r == skipped {
			continue
		}
		if r > 0 && r%5 == 0 {
			grow(60) // entrants, appended in id order
		}
		if r == loadAt {
			dbFilled, dbPlain = saveAndLoad(t, dbFilled), saveAndLoad(t, dbPlain)
			monFilled, monPlain = newMonitors()
		}
		tf := float64(r) / rounds
		counter.calls = make(map[alexa.SiteID]int)
		stF, dstF := monFilled.RunRound(r, dates[r], tf, filled)
		stP, dstP := monPlain.RunRound(r, dates[r], tf, plain)
		if stP.Carried != 0 {
			t.Fatalf("round %d: %d visits carried with no Until set", r, stP.Carried)
		}
		carried := stF.Carried
		stF.Carried = 0
		if stF != stP {
			t.Fatalf("round %d: stats %+v carrying, %+v querying", r, stF, stP)
		}
		if !slices.Equal(dstF, dstP) {
			t.Fatalf("round %d: destination ASes %v carrying, %v querying", r, dstF, dstP)
		}
		if !bytes.Equal(snapBytes(t, dbFilled), snapBytes(t, dbPlain)) {
			t.Fatalf("round %d: SaveBinary bytes differ between carrying and querying", r)
		}
		var wantResolved []alexa.SiteID
		for _, ref := range filled {
			first := !seen[ref.ID] || r == skipped+1
			if first || int32(r) >= ref.Until {
				wantResolved = append(wantResolved, ref.ID)
			}
			if int32(r) == ref.Until && !first {
				adopting++
			}
			seen[ref.ID] = true
		}
		var resolved []alexa.SiteID
		for id, n := range counter.calls {
			if n != 1 {
				t.Fatalf("round %d: site %d resolved %d times", r, id, n)
			}
			resolved = append(resolved, id)
		}
		sort.Slice(resolved, func(i, j int) bool { return resolved[i] < resolved[j] })
		if !slices.Equal(resolved, wantResolved) {
			t.Fatalf("round %d: resolved %d sites, want %d", r, len(resolved), len(wantResolved))
		}
		if carried != len(filled)-len(wantResolved) {
			t.Fatalf("round %d: Carried %d, want %d", r, carried, len(filled)-len(wantResolved))
		}
		if (r == 0 || r == skipped+1) && carried != 0 {
			t.Fatalf("round %d: Carried %d on a round after no history", r, carried)
		}
		carriedTotal += carried
	}
	if carriedTotal == 0 || adopting == 0 {
		t.Fatalf("degenerate run: %d carried visits, %d adoption-round visits", carriedTotal, adopting)
	}
}
