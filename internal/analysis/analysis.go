// Package analysis implements Section 4's methodology over a
// measurement database: data sanitization (which sites meet the
// across-round confidence target, and why the rest fail — Tables 2,
// 3, 5), classification into DL / SL-SP / SL-DP (Table 4, Fig. 4),
// validation of hypothesis H1 on same-path destination ASes (Tables
// 8, 9, 10 including cross-vantage checks), validation of hypothesis
// H2 on different-path ASes (Tables 11, 12, 13), and the supporting
// breakdowns (Tables 6, 7; Fig. 3b).
package analysis

import (
	"fmt"

	"v6web/internal/alexa"
	"v6web/internal/stats"
	"v6web/internal/store"
	"v6web/internal/topo"
)

// Class is the paper's site/destination classification.
type Class int

const (
	// ClassUnknown means the site has no usable classification
	// (e.g. no IPv6 origin).
	ClassUnknown Class = iota
	// DL: the A and AAAA records originate in different ASes.
	DL
	// SP: same origin AS, identical IPv4 and IPv6 AS paths.
	SP
	// DP: same origin AS, different IPv4 and IPv6 AS paths.
	DP
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case DL:
		return "DL"
	case SP:
		return "SP"
	case DP:
		return "DP"
	default:
		return "unknown"
	}
}

// Cause classifies why a site failed the confidence target (Table 3).
type Cause int

const (
	// CauseNone marks kept sites.
	CauseNone Cause = iota
	// CauseInsufficient: not enough samples accumulated.
	CauseInsufficient
	// CauseTransitionUp / CauseTransitionDown: a sharp level shift.
	CauseTransitionUp
	CauseTransitionDown
	// CauseTrendUp / CauseTrendDown: a steady drift.
	CauseTrendUp
	CauseTrendDown
)

// String returns the paper's column notation.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "kept"
	case CauseInsufficient:
		return "insufficient"
	case CauseTransitionUp:
		return "↑"
	case CauseTransitionDown:
		return "↓"
	case CauseTrendUp:
		return "↗"
	case CauseTrendDown:
		return "↘"
	default:
		return fmt.Sprintf("cause(%d)", int(c))
	}
}

// Thresholds collects the methodology's tunables, defaulting to the
// paper's values.
type Thresholds struct {
	// CI is the across-round confidence target ("95% confidence
	// interval within 10% of the mean").
	CI stats.CIStop
	// CompTol is the comparable-performance tolerance (10%).
	CompTol float64
	// SmallAS is the "small number of sites" cutoff (fewer than 4).
	SmallAS int
	// Transition is the Table 3 level-shift detector.
	Transition stats.TransitionDetector
	// Trend is the Table 3 drift detector.
	Trend stats.TrendDetector
}

// DefaultThresholds mirrors the paper.
func DefaultThresholds() Thresholds {
	return Thresholds{
		CI:         stats.CIStop{Frac: 0.10, MinN: 8},
		CompTol:    0.10,
		SmallAS:    4,
		Transition: stats.DefaultTransitionDetector(),
		Trend:      stats.DefaultTrendDetector(),
	}
}

// SiteAgg is the per-site aggregation the tables consume.
type SiteAgg struct {
	ID        alexa.SiteID
	FirstRank int
	V4AS      int
	V6AS      int

	Rounds int // paired rounds with samples in both families

	MeanV4 float64 // kbytes/sec across rounds
	MeanV6 float64

	Kept       bool
	Cause      Cause
	PathChange bool // failure coincides with an observed AS-path change

	Class  Class
	HopsV4 int // AS hops on the latest IPv4 path (-1 unknown)
	HopsV6 int
}

// V6Comparable reports whether the site's IPv6 performance is within
// tol of IPv4, or better.
func (s *SiteAgg) V6Comparable(tol float64) bool {
	return stats.Comparable(s.MeanV4, s.MeanV6, tol)
}

// RelDiff returns (v6-v4)/v4 for the site.
func (s *SiteAgg) RelDiff() float64 { return stats.RelDiff(s.MeanV4, s.MeanV6) }

// VantageAnalysis is the per-vantage analysis product.
type VantageAnalysis struct {
	Vantage store.Vantage
	Th      Thresholds

	// Sites holds every dual-stack site with samples in both
	// families, kept or removed.
	Sites []SiteAgg

	snap *store.Snapshot

	// Partitions of Sites, built once at analysis time so the tables
	// (which consult them repeatedly) stop re-filtering Sites per
	// call. The slices keep Sites order; keptByClass is indexed by
	// Class. All are returned capacity-clamped so callers may append.
	kept        []SiteAgg
	removed     []SiteAgg
	keptByClass [4][]SiteAgg

	// spCats memoizes the Table 8 per-AS categorization, shared by
	// Table 10 and the good-AS coverage analysis.
	spCats map[int]ASCategory
}

// AnalyzeSnapshot aggregates one vantage's measurements in a single
// pass over a frozen read view, in O(sampled series): per-site round
// pairing is a linear merge of the two round-sorted series (no
// per-site map), series expand into scratch buffers reused across
// sites, site rows and AS paths are resolved through the snapshot
// without copies, and the kept/removed/class partitions the tables
// consume are built once at the end.
func AnalyzeSnapshot(snap *store.Snapshot, v store.Vantage, th Thresholds) *VantageAnalysis {
	va := &VantageAnalysis{Vantage: v, Th: th, snap: snap}
	sampled := snap.SampledSites(v)
	va.Sites = make([]SiteAgg, 0, len(sampled))
	var s4, s6 []store.Sample // per-site scratch, reused across sites
	var v4s, v6s []float64
	for _, id := range sampled {
		s4 = snap.Series(s4[:0], v, id, topo.V4)
		s6 = snap.Series(s6[:0], v, id, topo.V6)
		if len(s4) == 0 || len(s6) == 0 {
			continue
		}
		v4s, v6s = pairRounds(s4, s6, v4s[:0], v6s[:0])
		va.Sites = append(va.Sites, va.aggregate(id, v4s, v6s))
	}
	va.partition()
	return va
}

// pairRounds aligns two round-sorted sample series on shared round
// numbers, keeping only rounds whose within-round CI converged in
// both families. It appends onto the passed scratch slices — a linear
// merge, replacing the per-site map the old pipeline rebuilt for
// every site of every exhibit.
func pairRounds(s4, s6 []store.Sample, v4, v6 []float64) ([]float64, []float64) {
	i, j := 0, 0
	for i < len(s4) && j < len(s6) {
		a, b := s4[i], s6[j]
		switch {
		case a.Round < b.Round:
			i++
		case b.Round < a.Round:
			j++
		default:
			if a.CIOK && b.CIOK && a.MeanSpeed > 0 && b.MeanSpeed > 0 {
				v4 = append(v4, a.MeanSpeed)
				v6 = append(v6, b.MeanSpeed)
			}
			i++
			j++
		}
	}
	return v4, v6
}

// partition splits Sites into the kept/removed/per-class views the
// tables consume.
func (va *VantageAnalysis) partition() {
	for _, s := range va.Sites {
		if !s.Kept {
			va.removed = append(va.removed, s)
			continue
		}
		va.kept = append(va.kept, s)
		if c := int(s.Class); c >= 0 && c < len(va.keptByClass) {
			va.keptByClass[c] = append(va.keptByClass[c], s)
		}
	}
}

func (va *VantageAnalysis) aggregate(id alexa.SiteID, v4s, v6s []float64) SiteAgg {
	agg := SiteAgg{ID: id, V4AS: -1, V6AS: -1, HopsV4: -1, HopsV6: -1}
	if rank, v4, v6, ok := va.snap.SiteOrigins(id); ok {
		agg.FirstRank, agg.V4AS, agg.V6AS = rank, v4, v6
	}
	agg.Rounds = len(v4s)
	var w4, w6 stats.Welford
	w4.AddAll(v4s)
	w6.AddAll(v6s)
	agg.MeanV4 = w4.Mean()
	agg.MeanV6 = w6.Mean()

	// Confidence target: both families must satisfy the across-round
	// CI rule ("sites that do not meet this criterion are not
	// included in the analysis").
	kept4 := va.Th.CI.Done(&w4)
	kept6 := va.Th.CI.Done(&w6)
	agg.Kept = kept4 && kept6
	if !agg.Kept {
		agg.Cause = va.classifyFailure(&agg, v4s, v6s)
	}

	// Path-derived attributes.
	agg.Class = va.classify(&agg)
	if agg.V4AS >= 0 {
		if p := va.snap.LatestPath(va.Vantage, topo.V4, agg.V4AS); p != nil {
			agg.HopsV4 = len(p) - 1
		}
	}
	if agg.V6AS >= 0 {
		if p := va.snap.LatestPath(va.Vantage, topo.V6, agg.V6AS); p != nil {
			agg.HopsV6 = len(p) - 1
		}
	}
	return agg
}

// classifyFailure reproduces Table 3's causes: insufficient samples,
// a sharp transition (↑/↓), or a steady trend (↗/↘). The transition
// check also records whether the destination's AS path changed during
// the study ("in some of those cases, this transition was the result
// of a path change").
func (va *VantageAnalysis) classifyFailure(agg *SiteAgg, v4s, v6s []float64) Cause {
	if agg.Rounds < va.Th.CI.MinN {
		return CauseInsufficient
	}
	fams := []topo.Family{topo.V4, topo.V6}
	for i, series := range [][]float64{v4s, v6s} {
		cause := classifySeries(va.Th, series)
		if cause == CauseNone {
			continue
		}
		if cause == CauseTransitionUp || cause == CauseTransitionDown {
			dst := agg.V4AS
			if fams[i] == topo.V6 {
				dst = agg.V6AS
			}
			if dst >= 0 && va.snap.PathChanged(va.Vantage, fams[i], dst) {
				agg.PathChange = true
			}
		}
		return cause
	}
	return CauseInsufficient
}

// classifySeries decides whether one family's series shows a sharp
// transition or a steady trend. When both detectors fire, the better
// of a two-level step fit and a linear fit (by residual error)
// disambiguates: a ramp is a trend even though it eventually crosses
// the transition threshold, and a step is a transition even though a
// line fits it loosely.
func classifySeries(th Thresholds, series []float64) Cause {
	tr := th.Transition.Detect(series)
	drift := th.Trend.Detect(series)
	if tr.Dir != stats.NoChange && drift != stats.NoChange {
		_, _, _, stepSSE := stats.BestStep(series)
		line := stats.LinearRegression(series)
		if line.SSE < stepSSE {
			tr.Dir = stats.NoChange // the ramp explanation wins
		} else {
			drift = stats.NoChange // the step explanation wins
		}
	}
	switch {
	case tr.Dir == stats.Up:
		return CauseTransitionUp
	case tr.Dir == stats.Down:
		return CauseTransitionDown
	case drift == stats.Up:
		return CauseTrendUp
	case drift == stats.Down:
		return CauseTrendDown
	default:
		return CauseNone
	}
}

// classify implements Fig. 4's first split: DL when the families'
// origin ASes differ; otherwise SP/DP by AS-path equality.
func (va *VantageAnalysis) classify(agg *SiteAgg) Class {
	if agg.V4AS < 0 || agg.V6AS < 0 {
		return ClassUnknown
	}
	if agg.V4AS != agg.V6AS {
		return DL
	}
	p4 := va.snap.LatestPath(va.Vantage, topo.V4, agg.V4AS)
	p6 := va.snap.LatestPath(va.Vantage, topo.V6, agg.V6AS)
	if p4 == nil || p6 == nil {
		return ClassUnknown
	}
	if len(p4) == len(p6) {
		same := true
		for i := range p4 {
			if p4[i] != p6[i] {
				same = false
				break
			}
		}
		if same {
			return SP
		}
	}
	return DP
}

// clampCap re-slices s to its own length so a caller appending to the
// result allocates instead of scribbling over a memoized partition.
func clampCap(s []SiteAgg) []SiteAgg { return s[:len(s):len(s)] }

// KeptSites returns the kept sites, optionally filtered by class, in
// Sites order. The common calls (no filter, one class) return the
// partition memoized at analysis time.
func (va *VantageAnalysis) KeptSites(classes ...Class) []SiteAgg {
	switch {
	case len(classes) == 0:
		return clampCap(va.kept)
	case len(classes) == 1:
		if c := int(classes[0]); c >= 0 && c < len(va.keptByClass) {
			return clampCap(va.keptByClass[c])
		}
		return nil
	}
	var want [len(va.keptByClass)]bool
	n := 0
	for _, c := range classes {
		if int(c) >= 0 && int(c) < len(want) {
			want[c] = true
			n += len(va.keptByClass[c])
		}
	}
	out := make([]SiteAgg, 0, n)
	for _, s := range va.kept {
		if want[s.Class] {
			out = append(out, s)
		}
	}
	return out
}

// RemovedSites returns the sites failing the confidence target, in
// Sites order.
func (va *VantageAnalysis) RemovedSites() []SiteAgg {
	return clampCap(va.removed)
}

// ASGroup is a destination AS with its kept sites.
type ASGroup struct {
	AS    int
	Sites []SiteAgg
}

// GroupByAS groups kept sites of the given class by destination AS
// (the shared origin AS for SP/DP, the IPv6 origin for DL).
func (va *VantageAnalysis) GroupByAS(class Class) []ASGroup {
	byAS := make(map[int][]SiteAgg)
	for _, s := range va.KeptSites(class) {
		dst := s.V4AS
		if class == DL {
			dst = s.V6AS
		}
		byAS[dst] = append(byAS[dst], s)
	}
	out := make([]ASGroup, 0, len(byAS))
	for as, sites := range byAS {
		out = append(out, ASGroup{AS: as, Sites: sites})
	}
	sortASGroups(out)
	return out
}

func sortASGroups(gs []ASGroup) {
	for i := 1; i < len(gs); i++ {
		for j := i; j > 0 && gs[j].AS < gs[j-1].AS; j-- {
			gs[j], gs[j-1] = gs[j-1], gs[j]
		}
	}
}

// MeanV4 and MeanV6 return the across-site average speeds of a group.
func (g ASGroup) MeanV4() float64 {
	var w stats.Welford
	for _, s := range g.Sites {
		w.Add(s.MeanV4)
	}
	return w.Mean()
}

// MeanV6 returns the across-site average IPv6 speed of the group.
func (g ASGroup) MeanV6() float64 {
	var w stats.Welford
	for _, s := range g.Sites {
		w.Add(s.MeanV6)
	}
	return w.Mean()
}

// ASCategory is Table 8/11's per-AS verdict.
type ASCategory int

const (
	// ASComparable: IPv6 within tolerance of IPv4 (or better) at the
	// AS level.
	ASComparable ASCategory = iota
	// ASZeroMode: worse at the AS level, but some sites match —
	// pointing at servers, not the network.
	ASZeroMode
	// ASSmall: worse, no zero-mode, and too few sites to tell.
	ASSmall
	// ASWorse: worse with enough sites and no zero-mode.
	ASWorse
)

// String implements fmt.Stringer.
func (c ASCategory) String() string {
	switch c {
	case ASComparable:
		return "IPv6≈IPv4"
	case ASZeroMode:
		return "zero-mode"
	case ASSmall:
		return "small"
	case ASWorse:
		return "worse"
	default:
		return fmt.Sprintf("cat(%d)", int(c))
	}
}

// Categorize applies Section 4's per-AS test sequence.
func Categorize(g ASGroup, tol float64, smallAS int) ASCategory {
	if stats.Comparable(g.MeanV4(), g.MeanV6(), tol) {
		return ASComparable
	}
	diffs := make([]float64, 0, len(g.Sites))
	for _, s := range g.Sites {
		diffs = append(diffs, s.RelDiff())
	}
	if ok, _ := stats.ZeroMode(diffs, tol); ok {
		return ASZeroMode
	}
	if len(g.Sites) < smallAS {
		return ASSmall
	}
	return ASWorse
}
