package core

import (
	"math"
	"testing"

	"v6web/internal/measure"
)

// wantUntil is the Until a filled ref must hold: the first round whose
// date is at or past the site's adoption instant (Adoption.Adopts),
// or math.MaxInt32 for a site that never adopts or adopts after the
// last round.
func wantUntil(s *Scenario, ref measure.SiteRef) int32 {
	when, adopts := s.Adopt.Adopts(ref.ID, int(ref.FirstRank))
	if !adopts {
		return math.MaxInt32
	}
	for r, d := range s.dates {
		if !d.Before(when) {
			return int32(r)
		}
	}
	return math.MaxInt32
}

// requireUntil fails unless every ref in refs holds the Until wantUntil
// gives (filled) or 0 (not filled), counting the refs that adopt within
// the study.
func requireUntil(t *testing.T, name string, s *Scenario, refs []measure.SiteRef, filled bool) (adopting int) {
	t.Helper()
	for _, ref := range refs {
		want := int32(0)
		if filled {
			want = wantUntil(s, ref)
		}
		if ref.Until != want {
			t.Fatalf("%s: site %d (rank %d) Until %d, want %d", name, ref.ID, ref.FirstRank, ref.Until, want)
		}
		if want := wantUntil(s, ref); want != math.MaxInt32 && want > 0 {
			adopting++
		}
	}
	return adopting
}

// TestNextRoundFillsUntil: NextRound fills Until on the refs it
// monitors, entrants included, with the round the site's DNS answer
// changes at; NewScenario and FastForward fill nothing, and the first
// round after a fast-forward fills every ref once; a shard-restricted
// scenario fills only its slice; World IPv6 Day's participants carry no
// Until.
func TestNextRoundFillsUntil(t *testing.T) {
	// The paper's 35 weekly rounds, so that sites adopt at the IANA
	// jump, gradually, on World IPv6 Day and late within the study.
	cfg := goldenConfig(5)
	cfg.ListSize = 3000
	cfg.Rounds = 35
	cfg.Vantages = ScaledVantages(cfg.Rounds)
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireUntil(t, "NewScenario", s, s.extRefs, false)
	s.FastForward(2)
	if len(s.tracked) == 0 {
		t.Fatal("FastForward tracked no sites")
	}
	requireUntil(t, "FastForward(2) tracked", s, s.tracked, false)
	requireUntil(t, "FastForward(2) extended", s, s.extRefs, false)
	adopting := 0
	for s.RoundsDone() < cfg.Rounds {
		before := len(s.tracked)
		if err := s.NextRound(); err != nil {
			t.Fatal(err)
		}
		if s.RoundsDone() > 3 && len(s.tracked) == before {
			t.Fatalf("round %d absorbed no entrants", s.RoundsDone()-1)
		}
		adopting = requireUntil(t, "after NextRound", s, s.tracked, true)
		requireUntil(t, "extended after NextRound", s, s.extRefs, true)
	}
	if adopting == 0 {
		t.Fatal("no tracked site adopts within the study")
	}
	for _, ref := range s.V6DayParticipants() {
		if ref.Until != 0 {
			t.Fatalf("World IPv6 Day participant %d carries Until %d", ref.ID, ref.Until)
		}
	}

	r, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slice := SiteRange{MainLo: 500, MainHi: 1500, ExtLo: ExtendedBase + 100, ExtHi: ExtendedBase + 200}
	r.Restrict(slice)
	for k := 0; k < 3; k++ {
		if err := r.NextRound(); err != nil {
			t.Fatal(err)
		}
	}
	for _, part := range []struct {
		name   string
		refs   []measure.SiteRef
		lo, hi int
	}{
		{"restricted main", r.tracked, int(slice.MainLo), int(slice.MainHi)},
		{"restricted extended", r.extRefs, int(slice.ExtLo), int(slice.ExtHi)},
	} {
		inside, outside := 0, 0
		for _, ref := range part.refs {
			in := int(ref.ID) >= part.lo && int(ref.ID) < part.hi
			requireUntil(t, part.name, r, []measure.SiteRef{ref}, in)
			if in {
				inside++
			} else {
				outside++
			}
		}
		if inside == 0 || outside == 0 {
			t.Fatalf("%s: %d refs inside the slice and %d outside", part.name, inside, outside)
		}
	}
}
