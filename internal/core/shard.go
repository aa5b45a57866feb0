package core

// This file is the shard-execution surface: the hooks that let a
// worker process run one slice of the site population through the
// ordinary round machinery (Restrict, RestrictVantages) and a
// coordinator rebuild the parts a restricted worker cannot produce
// (FastForward, ReplayPaths, FinalMainSites). The coordinator/worker
// protocol built on top lives in internal/shard.

import (
	"slices"

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
// per-round absorb. The monitors still record post-round path
// snapshots, to their own slice's destinations only: a coordinator
// does not merge those, it rebuilds the campaign's table from the
// merged DNS history with ReplayPaths.
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

// ReplayPaths rebuilds the main study's path table from s.DB alone,
// which must hold the campaign's DNS history and site rows and no path
// snapshots: the shard coordinator calls it once every shard has
// merged. A round's post-round snapshot at a vantage covers the origin
// ASes of the sites whose DNS row is dual-stack there
// (measure.RunRound). So for each vantage, a run-level walk of its DNS
// history finds each round's dual-stack sites, their known origin ASes
// become the round's destinations, and the paths to them are recorded
// in ascending round order. The origins come from the site rows: a
// site's origins stay fixed once it is dual-stack, and its row holds
// those of its latest observation, which is dual-stack whenever an
// earlier one was, so they are the origins the monitor resolved at
// every dual-stack round. PathTo is a pure function of (destination,
// family, round), so the table equals the one a single-process
// campaign records.
func (s *Scenario) ReplayPaths() {
	type dualRun struct {
		site     alexa.SiteID
		start, n int
	}
	for _, vp := range s.Cfg.Vantages {
		// Collect first: the walk holds the DNS locks.
		var runs []dualRun
		s.DB.ForEachDNSRun(vp.Name, func(row store.DNSRow, n int) {
			if row.HasA && row.HasAAAA {
				runs = append(runs, dualRun{row.Site, row.Round, n})
			}
		})
		// Sets, not lists: most of a round's dual-stack sites share
		// their origin ASes with others.
		dsts := make([]map[int]bool, s.Cfg.Rounds)
		for r := range dsts {
			dsts[r] = make(map[int]bool)
		}
		for _, run := range runs {
			row, ok := s.DB.Site(run.site)
			if !ok {
				continue
			}
			for r := run.start; r < run.start+run.n; r++ {
				for _, as := range [2]int{row.V4AS, row.V6AS} {
					if as >= 0 {
						dsts[r][as] = true
					}
				}
			}
		}
		f := s.fetchers[vp.Name]
		for r, set := range dsts {
			ases := make([]int, 0, len(set))
			for as := range set {
				ases = append(ases, as)
			}
			slices.Sort(ases)
			for _, dst := range ases {
				for _, fam := range [2]topo.Family{topo.V4, topo.V6} {
					if p := f.PathTo(dst, fam, r); p != nil {
						s.DB.AddPath(vp.Name, fam, dst, r, p)
					}
				}
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
