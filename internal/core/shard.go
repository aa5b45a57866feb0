package core

// This file is the shard-execution surface: the hooks that let a
// worker process run one slice of the site population through the
// ordinary round machinery (Restrict, RestrictVantages, SetDestSink)
// and a coordinator rebuild the parts a restricted worker cannot
// produce locally (FastForward, ReplayPaths, FinalMainSites). The
// coordinator/worker protocol built on top lives in internal/shard.

import (
	"v6web/internal/alexa"
	"v6web/internal/measure"
	"v6web/internal/store"
	"v6web/internal/topo"
)

// SiteRange is a shard's slice of the site population: main-list ids
// in [MainLo, MainHi) and extended-population ids in [ExtLo, ExtHi).
// Either half may be empty (Lo == Hi).
type SiteRange struct {
	MainLo, MainHi alexa.SiteID
	ExtLo, ExtHi   alexa.SiteID
}

// Restrict limits monitoring to the sites inside r. The scenario's
// substrates, reservations, and round/churn schedule are untouched —
// only the site references handed to the monitors shrink — and every
// random draw is derived per (seed, round, site), so the sites a
// restricted run does monitor observe exactly what they observe in an
// unrestricted run. Call after NewScenario or Resume, before running
// rounds; sites churning into the range later are picked up by the
// per-round absorb.
func (s *Scenario) Restrict(r SiteRange) {
	s.restrict = &r
	s.trackedR = filterRefs(s.tracked, r.MainLo, r.MainHi)
	s.extRefsR = filterRefs(s.extRefs, r.ExtLo, r.ExtHi)
}

func filterRefs(refs []measure.SiteRef, lo, hi alexa.SiteID) []measure.SiteRef {
	var out []measure.SiteRef
	for _, ref := range refs {
		if ref.ID >= lo && ref.ID < hi {
			out = append(out, ref)
		}
	}
	return out
}

// RestrictVantages limits monitoring to the named vantages (nil
// restores the full roster). Start rounds and the round/churn schedule
// keep following the full configured roster, so a vantage-restricted
// worker stays round-for-round aligned with the unrestricted campaign.
func (s *Scenario) RestrictVantages(names []store.Vantage) {
	if names == nil {
		s.allowVP = nil
		return
	}
	s.allowVP = make(map[store.Vantage]bool, len(names))
	for _, v := range names {
		s.allowVP[v] = true
	}
}

// FastForward advances the round cursor to `to` without monitoring:
// list churn, tracked-set growth, and table reservations happen
// exactly as in a monitored run. The shard coordinator uses it to
// reserve the full dense id ranges before merging worker results, and
// Resume (through fastForward) to bring a checkpoint's database and
// list state to the checkpointed round.
func (s *Scenario) FastForward(to int) { s.fastForward(to) }

// SetDestSink diverts every monitor's post-round path recording to fn
// (nil restores local recording): fn receives the vantage's sorted
// destination-AS set per completed round instead of AS paths being
// written to s.DB. A worker ships these sets to its coordinator, which
// replays the snapshots via ReplayPaths; shard-local path tables
// cannot simply be concatenated because AddPath collapses consecutive
// identical snapshots across the whole destination history. fn may be
// called from concurrent round tasks (an extended vantage's main and
// extended populations are separate units of work) and must be safe
// for that.
func (s *Scenario) SetDestSink(fn func(v store.Vantage, round int, dsts []int)) {
	for name, m := range s.monitors {
		if fn == nil {
			m.SetDestSink(nil)
			continue
		}
		name := name
		m.SetDestSink(func(round int, dsts []int) { fn(name, round, dsts) })
	}
}

// ReplayPaths records the post-round AS-path snapshot for round at
// vantage v given the destination-AS set that round observed — the
// coordinator-side counterpart of SetDestSink. The fetcher's PathTo is
// deterministic in (dst, family, round), so replaying the union of the
// workers' destination sets in ascending round order reproduces the
// path table byte-for-byte.
func (s *Scenario) ReplayPaths(v store.Vantage, round int, dsts []int) {
	f := s.fetchers[v]
	if f == nil {
		return
	}
	for _, dst := range dsts {
		for _, fam := range [2]topo.Family{topo.V4, topo.V6} {
			if p := f.PathTo(dst, fam, round); p != nil {
				s.DB.AddPath(v, fam, dst, round, p)
			}
		}
	}
}

// FinalMainSites replays the ranked list's churn to the campaign's
// final absorb and returns the main range's dense id count — the
// [0, n) half of the id space that shard ranges are carved from. The
// last absorb happens inside round Rounds-1, when the list has
// advanced Rounds-1 times, so the replay stops one advance short of
// the campaign's total.
func FinalMainSites(cfg Config) (int, error) {
	list, err := alexa.New(alexa.DefaultConfig(cfg.ListSize, cfg.Seed))
	if err != nil {
		return 0, err
	}
	for r := 0; r+1 < cfg.Rounds; r++ {
		list.Advance()
	}
	return list.TotalSeen(), nil
}
