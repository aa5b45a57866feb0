// Package core orchestrates a full reproduction of the paper's study:
// it builds the synthetic Internet (topology, routing, data plane,
// site catalogue, ranked list), stands up the paper's six monitoring
// vantage points with their staggered start dates, runs weekly
// monitoring rounds across the Dec 2010 – Aug 2011 window plus the
// World IPv6 Day side experiment, and exposes every table and figure
// of the evaluation through the analysis pipeline.
package core

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/analysis"
	"v6web/internal/det"
	"v6web/internal/measure"
	"v6web/internal/netsim"
	"v6web/internal/report"
	"v6web/internal/store"
	"v6web/internal/topo"
	"v6web/internal/websim"
)

// ExtendedBase offsets the site ids of the "extended population" —
// the ~5M additional sites Penn harvested from its DNS cache for the
// Fig 3b representativeness check.
const ExtendedBase alexa.SiteID = 1 << 40

// VantagePoint describes one monitoring location (Table 1).
type VantagePoint struct {
	Name        store.Vantage
	Start       string // monitoring start date, "1/2/06" style as in Table 1
	StartRound  int    // first study round this vantage participates in
	HasASPath   bool   // AS_PATH data available (analyzed vantages)
	WhiteListed bool   // white-listed by Google
	Commercial  bool
	Extended    bool // also monitors the extended site population
	V6Day       bool // participates in the World IPv6 Day experiment
}

// DefaultVantages reproduces Table 1. Start rounds are week offsets
// from the study start (2010-12-09); Penn predates the window and
// starts at round 0.
func DefaultVantages() []VantagePoint {
	return []VantagePoint{
		{Name: "Comcast", Start: "2/4/11", StartRound: 8, HasASPath: true, Commercial: true},
		{Name: "Go6-Slovenia", Start: "5/19/11", StartRound: 23, Commercial: true},
		{Name: "LU", Start: "4/29/11", StartRound: 20, HasASPath: true, V6Day: true},
		{Name: "Penn", Start: "7/22/09", StartRound: 0, HasASPath: true, Extended: true, V6Day: true},
		{Name: "Tsinghua", Start: "3/22/11", StartRound: 15},
		{Name: "UPCB", Start: "2/28/11", StartRound: 11, HasASPath: true, WhiteListed: true, Commercial: true, V6Day: true},
	}
}

// defaultStudyRounds is the weekly-round count of the paper's window;
// DefaultVantages' start rounds are expressed against it.
const defaultStudyRounds = 35

// ScaledVantages returns the Table 1 roster with start rounds scaled
// from the paper's 35-week window to a study of the given length.
func ScaledVantages(rounds int) []VantagePoint {
	out := DefaultVantages()
	for i := range out {
		out[i].StartRound = out[i].StartRound * rounds / defaultStudyRounds
	}
	return out
}

// Config parameterizes a scenario. Zero values are filled by
// DefaultConfig.
type Config struct {
	Seed int64

	NASes    int // topology size
	ListSize int // ranked-list size (scaled stand-in for the top 1M)
	Rounds   int // weekly monitoring rounds
	Extended int // extra Penn-only sites (the "5M" population), per run

	V6DayRounds int // 30-minute rounds during World IPv6 Day

	PathChangeFrac float64 // per (dest AS, family) reroute probability

	Vantages []VantagePoint

	TopoOverride *topo.GenConfig // optional full topology override
	Net          *netsim.Config  // optional data-plane override
	Web          *websim.Config  // optional catalogue override

	// Measure optionally overrides the monitoring tool's client
	// behavior (worker pool, page-identity threshold, CI stop rule,
	// download budget) at every vantage. Vantage and Seed are filled
	// per vantage by NewScenario and ignored here.
	Measure *measure.Config

	// Outages schedules vantage downtime: each entry takes one vantage
	// offline for the round window [From, To), during which it runs no
	// monitoring and the campaign emits a degraded RoundEvent in its
	// roster slot instead. Outages are part of the campaign definition
	// (and of Fingerprint when non-empty), not transient failures: the
	// same schedule produces the same degraded output on every run.
	Outages []VantageOutage

	// RoundWorkers bounds how many units of round work — one per
	// started vantage, plus one for the extended population at
	// extended vantages — monitor concurrently within a round.
	// 0 uses GOMAXPROCS; 1 forces the serial path. Deliberately NOT
	// part of Fingerprint: every worker count produces byte-identical
	// campaign output (test-enforced), so a checkpoint taken at one
	// setting resumes under any other.
	//v6lint:nonsemantic every worker count produces byte-identical output, so checkpoints resume under any setting
	RoundWorkers int
}

// VantageOutage takes one vantage offline for the main-study round
// window [From, To). The paper's campaign lived through exactly this —
// "due to the unforeseen failures at some vantage points, data
// collection was occasionally interrupted" — so planned degradation is
// modeled as campaign state rather than injected error.
type VantageOutage struct {
	Vantage store.Vantage `json:"vantage"`
	From    int           `json:"from"`
	To      int           `json:"to"`
}

// vantageOffline reports whether the vantage is scheduled offline for
// the given main-study round.
func (c Config) vantageOffline(v store.Vantage, round int) bool {
	for _, o := range c.Outages {
		if o.Vantage == v && round >= o.From && round < o.To {
			return true
		}
	}
	return false
}

// DefaultConfig returns a laptop-scale scenario preserving the
// paper's shape: ~1% IPv6 reachability, six vantages, 35 weekly
// rounds.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:           seed,
		NASes:          1500,
		ListSize:       20000,
		Rounds:         35,
		Extended:       4000,
		V6DayRounds:    12,
		PathChangeFrac: 0.12,
		Vantages:       DefaultVantages(),
	}
}

// Validate reports config errors.
func (c Config) Validate() error {
	if c.NASes < 50 {
		return fmt.Errorf("core: NASes %d too small", c.NASes)
	}
	if c.ListSize < 100 {
		return fmt.Errorf("core: ListSize %d too small", c.ListSize)
	}
	if c.Rounds < 2 {
		return fmt.Errorf("core: Rounds %d too small", c.Rounds)
	}
	if len(c.Vantages) == 0 {
		return fmt.Errorf("core: no vantage points")
	}
	for _, v := range c.Vantages {
		if v.StartRound < 0 || v.StartRound >= c.Rounds {
			return fmt.Errorf("core: vantage %s start round %d outside [0,%d)", v.Name, v.StartRound, c.Rounds)
		}
	}
	roster := make(map[store.Vantage]bool, len(c.Vantages))
	for _, v := range c.Vantages {
		roster[v.Name] = true
	}
	for i, o := range c.Outages {
		if !roster[o.Vantage] {
			return fmt.Errorf("core: outage vantage %q not in roster", o.Vantage)
		}
		if o.From < 0 || o.From >= o.To || o.To > c.Rounds {
			return fmt.Errorf("core: outage window [%d,%d) for %s outside [0,%d]", o.From, o.To, o.Vantage, c.Rounds)
		}
		for _, p := range c.Outages[:i] {
			if p.Vantage == o.Vantage && o.From < p.To && p.From < o.To {
				return fmt.Errorf("core: outage windows [%d,%d) and [%d,%d) for %s overlap", p.From, p.To, o.From, o.To, o.Vantage)
			}
		}
	}
	if c.RoundWorkers < 0 {
		return fmt.Errorf("core: RoundWorkers %d negative", c.RoundWorkers)
	}
	if c.Measure != nil {
		m := c.monitorConfig("validate", c.Seed)
		if err := m.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// monitorConfig resolves the monitor configuration for one vantage:
// the paper's tool parameters, or the campaign-wide Measure override
// with the per-vantage identity filled in.
func (c Config) monitorConfig(v store.Vantage, seed int64) measure.Config {
	if c.Measure == nil {
		return measure.DefaultConfig(v, seed)
	}
	m := *c.Measure
	m.Vantage = v
	m.Seed = seed
	return m
}

// Scenario is a fully wired study.
type Scenario struct {
	Cfg      Config
	Timeline alexa.Timeline

	Graph   *topo.Graph
	List    *alexa.Model
	Adopt   *alexa.Adoption
	Catalog *websim.Catalog
	Model   *netsim.Model

	DB      *store.DB // main study measurements
	V6DayDB *store.DB // World IPv6 Day side experiment

	monitors  map[store.Vantage]*measure.Monitor
	fetchers  map[store.Vantage]*measure.SimFetcher
	vantageAS map[store.Vantage]int
	dates     []time.Time

	extRefs []measure.SiteRef // Penn's extended population

	// restrict, when set, limits monitoring to a shard's slice of the
	// site population (see Restrict in shard.go); trackedR/extRefsR are
	// the restricted subsets, maintained alongside tracked/extRefs.
	// allowVP, when non-nil, limits monitoring to a vantage subset.
	restrict *SiteRange
	trackedR []measure.SiteRef
	extRefsR []measure.SiteRef
	allowVP  map[store.Vantage]bool

	// tracked accumulates every site ever seen in the list: "new
	// sites ... are added to the monitoring list and tracked from
	// this point onward" (Section 3). absorbed is the mint cursor of
	// the last absorb: ids below it are already tracked (or were
	// churned away unseen) — see absorbRanked.
	tracked  []measure.SiteRef
	absorbed int

	// next is the campaign's round cursor: the first main-study round
	// not yet executed (or fast-forwarded past). See runner.go.
	next   int
	ranV6D bool

	// study memoizes the main analysis at its cursor position and snap
	// the frozen view it analyzed, which the extensions read too;
	// v6dayStudy memoizes the side experiment's (immutable once run).
	study      *analysis.Study
	snap       *store.Snapshot
	studyAt    int
	v6dayStudy *analysis.Study
}

// NewScenario wires all substrates deterministically from cfg.
func NewScenario(cfg Config) (*Scenario, error) {
	if cfg.Vantages == nil {
		cfg.Vantages = DefaultVantages()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Scenario{
		Cfg:       cfg,
		Timeline:  alexa.DefaultTimeline(),
		DB:        store.NewDB(),
		V6DayDB:   store.NewDB(),
		monitors:  make(map[store.Vantage]*measure.Monitor),
		fetchers:  make(map[store.Vantage]*measure.SimFetcher),
		vantageAS: make(map[store.Vantage]int),
	}

	tc := topo.DefaultGenConfig(cfg.NASes, cfg.Seed)
	if cfg.TopoOverride != nil {
		tc = *cfg.TopoOverride
	}
	g, err := topo.Generate(tc)
	if err != nil {
		return nil, err
	}
	s.Graph = g

	list, err := alexa.New(alexa.DefaultConfig(cfg.ListSize, cfg.Seed))
	if err != nil {
		return nil, err
	}
	s.List = list

	s.Adopt = alexa.NewAdoption(cfg.Seed, s.Timeline)
	s.Adopt.RankScale = 1e6 / float64(cfg.ListSize)

	wc := websim.DefaultConfig(cfg.Seed)
	if cfg.Web != nil {
		wc = *cfg.Web
	}
	cat, err := websim.NewCatalog(g, s.Adopt, wc)
	if err != nil {
		return nil, err
	}
	// Reserve the index-addressed site tables — the catalogue's
	// lock-free cache and the store's columnar tables: the main list's
	// ids are dense from zero (grown between rounds as churn mints new
	// sites), the extended population is dense from ExtendedBase.
	cat.Reserve(list.TotalSeen(), ExtendedBase, cfg.Extended)
	s.DB.Reserve(list.TotalSeen(), ExtendedBase, cfg.Extended)
	s.Catalog = cat

	nc := netsim.DefaultConfig(cfg.Seed)
	if cfg.Net != nil {
		nc = *cfg.Net
	}
	model, err := netsim.New(g, nc)
	if err != nil {
		return nil, err
	}
	s.Model = model

	// Round dates: weekly from the study start.
	for r := 0; r < cfg.Rounds; r++ {
		s.dates = append(s.dates, s.Timeline.Start.AddDate(0, 0, 7*r))
	}

	// Vantage ASes: commercial vantages live in v6-capable tier2
	// networks, academic ones in v6-capable stubs. Distinct per
	// vantage.
	if err := s.placeVantages(); err != nil {
		return nil, err
	}

	// Monitors and fetchers.
	for _, vp := range cfg.Vantages {
		fetch, err := measure.NewSimFetcher(s.vantageAS[vp.Name], cat, model, cfg.PathChangeFrac, cfg.Rounds, cfg.Seed)
		if err != nil {
			return nil, err
		}
		s.fetchers[vp.Name] = fetch
		mon, err := measure.NewMonitor(cfg.monitorConfig(vp.Name, cfg.Seed), fetch, s.DB)
		if err != nil {
			return nil, err
		}
		s.monitors[vp.Name] = mon
	}

	// Extended population for Fig 3b: ranks spread across a 5x wider
	// range than the main list.
	for i := 0; i < cfg.Extended; i++ {
		id := ExtendedBase + alexa.SiteID(i)
		rank := 1 + det.IntN(cfg.ListSize*5, uint64(cfg.Seed), uint64(id), 0xE57)
		s.extRefs = append(s.extRefs, measure.SiteRef{ID: id, FirstRank: rank})
	}
	return s, nil
}

// placeVantages assigns each vantage a distinct, v6-capable AS.
func (s *Scenario) placeVantages() error {
	g := s.Graph
	used := map[int]bool{}
	// Count native v6 adjacencies: a measure of how well-peered an
	// AS's IPv6 is.
	v6Degree := func(i int) int {
		d := 0
		for _, n := range g.RawNeighbors(i) {
			if n.V6 {
				d++
			}
		}
		return d
	}
	// Commercial vantages (Comcast, UPCB in the paper) are
	// well-peered v6 tier2 networks: their IPv6 routes often match
	// IPv4 (SP-rich). Academic vantages are edge stubs whose v6
	// uplink frequently diverges from their v4 one (DP-heavy, like
	// the paper's Penn). Stubs are taken from the high indices so
	// vantages avoid the zipf hosting hotspots.
	pickCommercial := func() int {
		best, bestDeg := -1, -1
		for i := 0; i < g.N(); i++ {
			a := g.AS(i)
			if used[i] || !a.V6 || a.CDN || a.TunnelBroker || a.Tier != topo.Tier2 {
				continue
			}
			if d := v6Degree(i); d > bestDeg {
				best, bestDeg = i, d
			}
		}
		if best >= 0 {
			used[best] = true
		}
		return best
	}
	pickAcademic := func() int {
		for i := g.N() - 1; i >= 0; i-- {
			a := g.AS(i)
			if used[i] || !a.V6 || a.CDN || a.TunnelBroker || a.Tier != topo.Stub {
				continue
			}
			used[i] = true
			return i
		}
		return -1
	}
	for _, vp := range s.Cfg.Vantages {
		var as int
		if vp.Commercial {
			as = pickCommercial()
			if as < 0 {
				as = pickAcademic()
			}
		} else {
			as = pickAcademic()
			if as < 0 {
				as = pickCommercial()
			}
		}
		if as < 0 {
			return fmt.Errorf("core: no v6-capable AS left for vantage %s", vp.Name)
		}
		s.vantageAS[vp.Name] = as
	}
	return nil
}

// VantageAS returns the AS hosting a vantage point.
func (s *Scenario) VantageAS(v store.Vantage) int { return s.vantageAS[v] }

// RoundDate returns the calendar date of a round.
func (s *Scenario) RoundDate(r int) time.Time { return s.dates[r] }

// tFrac positions a date within the study window.
func (s *Scenario) tFrac(date time.Time) float64 {
	span := s.Timeline.End.Sub(s.Timeline.Start)
	if span <= 0 {
		return 0
	}
	f := float64(date.Sub(s.Timeline.Start)) / float64(span)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return f
}

// TrackedSites returns how many distinct sites have entered the
// monitored set so far.
func (s *Scenario) TrackedSites() int { return len(s.tracked) }

// V6DayParticipants returns the monitored sites that advertised
// participation in World IPv6 Day. Participation is exactly "adopts
// on the day itself" (websim marks V6DayParticipant for sites whose
// adoption date equals the event), so the walk asks the adoption
// model directly instead of materializing a catalogue Site per ranked
// entry — at a million ranks that is the difference between a scan
// and hundreds of megabytes of cached Sites.
func (s *Scenario) V6DayParticipants() []measure.SiteRef {
	var out []measure.SiteRef
	v6day := s.Adopt.Timeline.V6Day
	s.List.ForEachRanked(func(_ int, id alexa.SiteID) {
		rank := s.List.FirstSeenRank(id)
		if when, ok := s.Adopt.Adopts(id, rank); ok && when.Equal(v6day) {
			out = append(out, measure.SiteRef{ID: id, FirstRank: rank})
		}
	})
	return out
}

// analyzedVantages returns the vantages with AS_PATH data, in config
// order — the paper's analysis set.
func (s *Scenario) analyzedVantages() []VantagePoint {
	var out []VantagePoint
	for _, vp := range s.Cfg.Vantages {
		if vp.HasASPath {
			out = append(out, vp)
		}
	}
	return out
}

// Study analyzes the main measurement DB across AS_PATH vantages.
// The analysis and the snapshot it read are memoized per cursor
// position: every exhibit of a finished campaign renders from one
// shared study and one frozen view instead of re-scanning the store.
// Callers that mutate s.DB directly (rather than through monitoring
// rounds) should use ComputeStudy.
func (s *Scenario) Study() *analysis.Study {
	if s.study == nil || s.studyAt != s.next {
		s.snap = s.DB.Freeze()
		s.study = s.studyOf(s.snap)
		s.studyAt = s.next
	}
	return s.study
}

// snapshot returns the frozen view of the main DB that Study analyzed.
func (s *Scenario) snapshot() *store.Snapshot {
	s.Study()
	return s.snap
}

// ComputeStudy runs the full analysis pass unconditionally over a
// freshly frozen snapshot.
func (s *Scenario) ComputeStudy() *analysis.Study {
	return s.studyOf(s.DB.Freeze())
}

// studyOf analyzes every AS_PATH vantage of one frozen snapshot. The
// per-vantage analyses are independent reads of the frozen view, so
// they run on the round worker pool; results land in roster-order
// slots, keeping the study deterministic.
func (s *Scenario) studyOf(snap *store.Snapshot) *analysis.Study {
	th := analysis.DefaultThresholds()
	vps := s.analyzedVantages()
	vas := make([]*analysis.VantageAnalysis, len(vps))
	runTasks(s.roundWorkers(), len(vps), func(k int) {
		vas[k] = analysis.AnalyzeSnapshot(snap, vps[k].Name, th)
	})
	return analysis.NewStudy(vas...)
}

// V6DayStudy analyzes the World IPv6 Day DB. Memoized once the side
// experiment has run (its database is immutable from then on).
func (s *Scenario) V6DayStudy() *analysis.Study {
	if s.v6dayStudy != nil && s.ranV6D {
		return s.v6dayStudy
	}
	th := report.V6DayThresholds()
	snap := s.V6DayDB.Freeze()
	var vps []VantagePoint
	for _, vp := range s.Cfg.Vantages {
		if vp.V6Day {
			vps = append(vps, vp)
		}
	}
	vas := make([]*analysis.VantageAnalysis, len(vps))
	runTasks(s.roundWorkers(), len(vps), func(k int) {
		vas[k] = analysis.AnalyzeSnapshot(snap, vps[k].Name, th)
	})
	st := analysis.NewStudy(vas...)
	if s.ranV6D {
		s.v6dayStudy = st
	}
	return st
}

// Fig1 returns the reachability time series over the round dates.
func (s *Scenario) Fig1() ([]time.Time, []float64) {
	ranked := s.List.Ranked()
	series := s.Adopt.ReachabilitySeries(ranked, s.List.FirstSeenRank, s.dates)
	return s.dates, series
}

// Fig3a returns reachability by real-world rank bucket at the study
// end, computed analytically from the adoption model (a scaled list
// cannot populate the Top-10/Top-100 buckets).
func (s *Scenario) Fig3a() [6]float64 {
	return s.Adopt.ExpectedBucketReachability(s.Timeline.End)
}

// Fig3b returns, for the given vantage, the fraction of kept sites
// with faster IPv6 in the main list and in the combined
// main+extended population. AS_PATH vantages reuse the memoized
// study; others are analyzed on the spot, over the study's snapshot.
func (s *Scenario) Fig3b(v store.Vantage) (top1M, extended float64) {
	va := s.Study().Vantage(v)
	if va == nil {
		va = analysis.AnalyzeSnapshot(s.snapshot(), v, analysis.DefaultThresholds())
	}
	top1M = va.V6FasterOdds(func(sa analysis.SiteAgg) bool { return sa.ID < ExtendedBase })
	extended = va.V6FasterOdds(nil)
	return top1M, extended
}

// Table1 converts the vantage roster for rendering.
func (s *Scenario) Table1() []report.VantageInfo {
	var out []report.VantageInfo
	for _, vp := range s.Cfg.Vantages {
		out = append(out, report.VantageInfo{
			Name:    string(vp.Name),
			Start:   vp.Start,
			ASPath:  vp.HasASPath,
			Listed:  vp.WhiteListed,
			Ovcomml: vp.Commercial,
		})
	}
	return out
}

// ReportAll runs the full study (if needed) and renders every table
// and figure to w.
func (s *Scenario) ReportAll(w io.Writer) error {
	if err := s.RunContext(context.TODO()); err != nil {
		return err
	}
	if err := s.RunWorldV6DayContext(context.TODO()); err != nil {
		return err
	}
	s.RenderExhibits(w, s.V6DayStudy(), nil)
	return nil
}

// RenderExhibits renders the exhibits named in selected ("fig1",
// "fig3a", "fig3b", "table1" … "table13", "betterv6", "tunnels",
// "coverage", "traceroute") in the paper's order; a nil selection
// renders everything. It is the single exhibit-sequence for both the
// full report (ReportAll) and pack-selected rendering
// (scenario.Render), so ordering and captions cannot drift between
// them. The campaign must have run; v6day carries the World IPv6 Day
// study or nil to skip Tables 10 and 12.
func (s *Scenario) RenderExhibits(w io.Writer, v6day *analysis.Study, selected map[string]bool) {
	want := func(name string) bool { return selected == nil || selected[name] }
	if want("fig1") {
		dates, series := s.Fig1()
		report.Fig1(w, dates, series)
	}
	if want("fig3a") {
		report.Fig3a(w, s.Fig3a())
	}
	if want("fig3b") {
		t1m, ext := s.Fig3b("Penn")
		report.Fig3b(w, "Penn", t1m, ext)
	}
	if want("table1") {
		report.Table1(w, s.Table1())
	}
	if anyStudyTable(selected) {
		report.RenderStudySelected(w, s.Study(), v6day, selected)
	}
	// Section 5.5's trait search and extensions beyond the paper's
	// exhibits.
	if want("betterv6") {
		WriteBetterV6(w, s.BetterV6Profiles())
	}
	if want("tunnels") {
		WriteTunnelReport(w, s.TunnelReport())
	}
	if want("coverage") {
		WriteCoverageGrowth(w, s)
	}
	if want("traceroute") {
		if tc, err := s.RunTracerouteCheck("Penn"); err == nil {
			WriteTracerouteCheck(w, tc)
		}
	}
}

// anyStudyTable reports whether the selection includes one of the
// measurement tables (2–13) that need the analyzed study.
func anyStudyTable(selected map[string]bool) bool {
	if selected == nil {
		return true
	}
	for name := range selected {
		if strings.HasPrefix(name, "table") && name != "table1" {
			return true
		}
	}
	return false
}
