package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"v6web/internal/alexa"
	"v6web/internal/analysis"
	"v6web/internal/measure"
)

// TestParallelSerialCampaignsByteIdentical is the determinism
// property behind the parallel round path: a campaign run with round
// work dispatched onto a worker pool must produce final CSVs (main
// study and World IPv6 Day) byte-identical to the serial-forced path,
// across seeds. This is what lets RoundWorkers stay outside the
// config fingerprint.
func TestParallelSerialCampaignsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel determinism property test in -short mode")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dirs := make(map[string]string)
			for name, workers := range map[string]int{"serial": 1, "parallel": 8} {
				cfg := runnerCfg(seed)
				cfg.RoundWorkers = workers
				s, err := NewScenario(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.RunContext(context.Background()); err != nil {
					t.Fatal(err)
				}
				if err := s.RunWorldV6DayContext(context.Background()); err != nil {
					t.Fatal(err)
				}
				dir := t.TempDir()
				saveCampaign(t, s, dir)
				dirs[name] = dir
			}
			assertCampaignsIdentical(t, dirs["serial"], dirs["parallel"],
				fmt.Sprintf("parallel rounds, seed %d", seed))
		})
	}
}

// TestParallelRoundsRaceSmoke exercises concurrent vantage rounds —
// including Penn's extended shard racing its main sweep — writing one
// DB, then the concurrent per-vantage analyses of both studies, each
// reading one frozen view with its own scratch buffers, at a scale
// small enough for `go test -race ./internal/core` and -short runs.
// Correctness of the data is covered by the determinism test; here
// the race detector is the assertion.
func TestParallelRoundsRaceSmoke(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.NASes = 250
	cfg.ListSize = 600
	cfg.Extended = 150
	cfg.Rounds = 3
	cfg.V6DayRounds = 2
	cfg.Vantages = ScaledVantages(cfg.Rounds)
	cfg.RoundWorkers = 8
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	if err := s.RunContext(context.Background(), WithObserver(func(RoundEvent) { events++ })); err != nil {
		t.Fatal(err)
	}
	if err := s.RunWorldV6DayContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("no round events emitted")
	}
	if _, _, samples, _ := s.DB.Counts(); samples == 0 {
		t.Fatal("parallel campaign stored no samples")
	}
	for name, st := range map[string]*analysis.Study{"main": s.ComputeStudy(), "v6day": s.V6DayStudy()} {
		sites := 0
		for _, va := range st.Vantages {
			sites += len(va.Sites)
		}
		if len(st.Vantages) < 2 || sites == 0 {
			t.Fatalf("%s study: %d vantages, %d sites", name, len(st.Vantages), sites)
		}
	}
}

// TestRoundWorkersOutsideFingerprint: the worker bound is an
// execution knob, not a campaign parameter — configs differing only
// in RoundWorkers must fingerprint identically so a checkpoint taken
// under one setting resumes under any other.
func TestRoundWorkersOutsideFingerprint(t *testing.T) {
	a := runnerCfg(1)
	b := runnerCfg(1)
	b.RoundWorkers = 16
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("RoundWorkers changed the fingerprint: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	bad := runnerCfg(1)
	bad.RoundWorkers = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative RoundWorkers accepted")
	}
}

// TestAbsorbEquivalentToMapBasedWalk pins the invariant the entrant
// walk in absorbRanked relies on: visiting only the sites minted
// since the last absorb (alexa.ForEachEntrant) accumulates exactly
// the same tracked set as the original reference algorithm (copy the
// full ranking, probe a seen-set per rank) — including sites churned
// away twice at one rank within a single round, which neither
// algorithm may ever track. The entrant walk emits each round's
// additions in mint order rather than rank order; every monitoring
// outcome is independent of site order (each site's randomness is
// derived per (seed, round, site)), which the campaign CSV golden
// test pins end to end.
func TestAbsorbEquivalentToMapBasedWalk(t *testing.T) {
	for _, seed := range []int64{3, 11, 27} {
		lc := alexa.DefaultConfig(900, seed)
		lc.ChurnPerRound = 0.3 // high churn to force same-round rank collisions
		mNew, err := alexa.New(lc)
		if err != nil {
			t.Fatal(err)
		}
		mRef, err := alexa.New(lc)
		if err != nil {
			t.Fatal(err)
		}
		var gotTracked, wantTracked []measure.SiteRef
		absorbed := 0
		seen := make(map[alexa.SiteID]bool)
		for round := 0; round < 12; round++ {
			// New algorithm: walk only the entrants past the mint cursor.
			batchStart := len(gotTracked)
			mNew.ForEachEntrant(alexa.SiteID(absorbed), func(rank int, id alexa.SiteID) {
				gotTracked = append(gotTracked, measure.SiteRef{ID: id, FirstRank: int32(rank)})
			})
			absorbed = mNew.TotalSeen()
			// Reference algorithm (pre-PR): seen-set probe per rank.
			wantBatchStart := len(wantTracked)
			for _, id := range mRef.Ranked() {
				if !seen[id] {
					seen[id] = true
					wantTracked = append(wantTracked, measure.SiteRef{ID: id, FirstRank: int32(mRef.FirstSeenRank(id))})
				}
			}
			if len(gotTracked) != len(wantTracked) {
				t.Fatalf("seed %d round %d: %d tracked, want %d", seed, round, len(gotTracked), len(wantTracked))
			}
			// The round's additions must be the same set; the entrant
			// walk orders them by mint id, so compare sorted.
			got := append([]measure.SiteRef(nil), gotTracked[batchStart:]...)
			want := append([]measure.SiteRef(nil), wantTracked[wantBatchStart:]...)
			sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
			sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d round %d: tracked[%d] = %+v, want %+v", seed, round, i, got[i], want[i])
				}
			}
			mNew.Advance()
			mRef.Advance()
		}
		// High churn must actually have produced unseen-and-gone ids,
		// or the collision arm of the invariant went untested.
		if mNew.TotalSeen() == len(gotTracked) {
			t.Fatalf("seed %d: no same-round rank collisions occurred; raise churn", seed)
		}
	}
}
