package analysis

import (
	"v6web/internal/stats"
	"v6web/internal/store"
	"v6web/internal/topo"
)

// Study bundles the per-vantage analyses and computes every table of
// Section 5.
type Study struct {
	Vantages []*VantageAnalysis
	byName   map[store.Vantage]*VantageAnalysis
}

// NewStudy builds a study over the given vantage analyses.
func NewStudy(vas ...*VantageAnalysis) *Study {
	s := &Study{byName: make(map[store.Vantage]*VantageAnalysis)}
	for _, va := range vas {
		s.Vantages = append(s.Vantages, va)
		s.byName[va.Vantage] = va
	}
	return s
}

// Vantage returns one vantage's analysis, or nil.
func (s *Study) Vantage(v store.Vantage) *VantageAnalysis { return s.byName[v] }

// ProfileRow is one column of Table 2.
type ProfileRow struct {
	Vantage    store.Vantage
	SitesTotal int // sites accessible over both families
	SitesKept  int // sites meeting the confidence target
	DestV4     int // destination ASes (IPv4)
	DestV6     int
	CrossV4    int // ASes crossed including destinations (IPv4)
	CrossV6    int
}

// Table2 returns per-vantage monitoring profiles plus the all-vantage
// union counts (the paper's "All" column: destination ASes and ASes
// crossed only).
func (s *Study) Table2() ([]ProfileRow, ProfileRow) {
	var rows []ProfileRow
	uDest4 := map[int]bool{}
	uDest6 := map[int]bool{}
	uCross4 := map[int]bool{}
	uCross6 := map[int]bool{}
	for _, va := range s.Vantages {
		row := ProfileRow{Vantage: va.Vantage, SitesTotal: len(va.Sites)}
		dest4 := map[int]bool{}
		dest6 := map[int]bool{}
		for _, site := range va.Sites {
			if site.Kept {
				row.SitesKept++
			}
			if site.V4AS >= 0 {
				dest4[site.V4AS] = true
				uDest4[site.V4AS] = true
			}
			if site.V6AS >= 0 {
				dest6[site.V6AS] = true
				uDest6[site.V6AS] = true
			}
		}
		row.DestV4 = len(dest4)
		row.DestV6 = len(dest6)
		x4 := va.snap.ASesCrossed(va.Vantage, topo.V4)
		x6 := va.snap.ASesCrossed(va.Vantage, topo.V6)
		row.CrossV4 = len(x4)
		row.CrossV6 = len(x6)
		for a := range x4 {
			uCross4[a] = true
		}
		for a := range x6 {
			uCross6[a] = true
		}
		rows = append(rows, row)
	}
	all := ProfileRow{
		Vantage: "All",
		DestV4:  len(uDest4), DestV6: len(uDest6),
		CrossV4: len(uCross4), CrossV6: len(uCross6),
	}
	return rows, all
}

// FailureRow is one row of Table 3 plus the path-change attribution
// discussed in the text.
type FailureRow struct {
	Vantage        store.Vantage
	Insufficient   int
	TransUp        int
	TransDown      int
	TrendUp        int
	TrendDown      int
	TransFromPath  int // transitions coinciding with a path change
	TransitionsAll int
}

// Table3 classifies the removed sites per vantage.
func (s *Study) Table3() []FailureRow {
	var rows []FailureRow
	for _, va := range s.Vantages {
		row := FailureRow{Vantage: va.Vantage}
		for _, site := range va.RemovedSites() {
			switch site.Cause {
			case CauseInsufficient:
				row.Insufficient++
			case CauseTransitionUp:
				row.TransUp++
			case CauseTransitionDown:
				row.TransDown++
			case CauseTrendUp:
				row.TrendUp++
			case CauseTrendDown:
				row.TrendDown++
			}
			if site.Cause == CauseTransitionUp || site.Cause == CauseTransitionDown {
				row.TransitionsAll++
				if site.PathChange {
					row.TransFromPath++
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// ClassRow is one column of Table 4.
type ClassRow struct {
	Vantage store.Vantage
	DL      int
	SP      int
	DP      int
}

// Table4 counts kept sites per class.
func (s *Study) Table4() []ClassRow {
	var rows []ClassRow
	for _, va := range s.Vantages {
		row := ClassRow{Vantage: va.Vantage}
		for _, site := range va.KeptSites() {
			switch site.Class {
			case DL:
				row.DL++
			case SP:
				row.SP++
			case DP:
				row.DP++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RemovedBiasRow is one column of Table 5: removed sites with
// sufficient samples, split by class and IPv6-relative performance.
type RemovedBiasRow struct {
	Vantage store.Vantage
	SPGood  int
	SPBad   int
	DPGood  int
	DPBad   int
	DLGood  int
	DLBad   int
}

// Table5 checks whether removal biased the data: for each removed
// site with enough samples, was its IPv6 performance good (within
// tolerance of IPv4, or better) or bad?
func (s *Study) Table5() []RemovedBiasRow {
	var rows []RemovedBiasRow
	for _, va := range s.Vantages {
		row := RemovedBiasRow{Vantage: va.Vantage}
		for _, site := range va.RemovedSites() {
			if site.Cause == CauseInsufficient {
				continue // the paper restricts to the last four columns
			}
			good := site.V6Comparable(va.Th.CompTol)
			switch site.Class {
			case SP:
				if good {
					row.SPGood++
				} else {
					row.SPBad++
				}
			case DP:
				if good {
					row.DPGood++
				} else {
					row.DPBad++
				}
			case DL:
				if good {
					row.DLGood++
				} else {
					row.DLBad++
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// DLPerfRow is one column of Table 6.
type DLPerfRow struct {
	Vantage  store.Vantage
	Sites    int
	FracV4GE float64 // fraction of sites with IPv4 ≥ IPv6
	MeanV4   float64 // kbytes/sec
	MeanV6   float64
}

// Table6 compares families for DL sites.
func (s *Study) Table6() []DLPerfRow {
	var rows []DLPerfRow
	for _, va := range s.Vantages {
		row := DLPerfRow{Vantage: va.Vantage}
		var w4, w6 stats.Welford
		ge := 0
		for _, site := range va.KeptSites(DL) {
			row.Sites++
			w4.Add(site.MeanV4)
			w6.Add(site.MeanV6)
			if site.MeanV4 >= site.MeanV6 {
				ge++
			}
		}
		if row.Sites > 0 {
			row.FracV4GE = float64(ge) / float64(row.Sites)
		}
		row.MeanV4 = w4.Mean()
		row.MeanV6 = w6.Mean()
		rows = append(rows, row)
	}
	return rows
}

// HopBuckets is the paper's hop-count bucketing: 1, 2, 3, 4, ≥5.
const HopBuckets = 5

// HopBucket maps an AS hop count to a bucket index, or -1 for
// unknown/zero-hop paths.
func HopBucket(hops int) int {
	switch {
	case hops < 1:
		return -1
	case hops >= 5:
		return 4
	default:
		return hops - 1
	}
}

// HopLabels names the buckets.
var HopLabels = [HopBuckets]string{"1 Hop", "2 Hops", "3 Hops", "4 Hops", ">= 5 Hops"}

// HopRow is one vantage's per-family hop-count breakdown (Tables 7
// and 9).
type HopRow struct {
	Vantage store.Vantage
	Fam     topo.Family
	Speed   [HopBuckets]float64 // mean kbytes/sec per bucket
	Count   [HopBuckets]int     // sites per bucket
}

// hopTable aggregates sites into per-family hop rows. hops selects
// which hop count applies for a family.
func hopTable(va *VantageAnalysis, sites []SiteAgg) []HopRow {
	rows := []HopRow{{Vantage: va.Vantage, Fam: topo.V4}, {Vantage: va.Vantage, Fam: topo.V6}}
	var sums [2][HopBuckets]float64
	for _, site := range sites {
		if b := HopBucket(site.HopsV4); b >= 0 {
			sums[0][b] += site.MeanV4
			rows[0].Count[b]++
		}
		if b := HopBucket(site.HopsV6); b >= 0 {
			sums[1][b] += site.MeanV6
			rows[1].Count[b]++
		}
	}
	for f := 0; f < 2; f++ {
		for b := 0; b < HopBuckets; b++ {
			if rows[f].Count[b] > 0 {
				rows[f].Speed[b] = sums[f][b] / float64(rows[f].Count[b])
			}
		}
	}
	return rows
}

// Table7 breaks DL+DP sites (different IPv4/IPv6 paths) down by
// per-family hop count. Tunnels make low-hop IPv6 look worse than
// IPv4 — the artefact Section 5.2 explains.
func (s *Study) Table7() []HopRow {
	var out []HopRow
	for _, va := range s.Vantages {
		sites := append(va.KeptSites(DL), va.KeptSites(DP)...)
		out = append(out, hopTable(va, sites)...)
	}
	return out
}

// Table9 is the same breakdown for SP sites, where hop counts agree
// between families and performance tracks closely (H1).
func (s *Study) Table9() []HopRow {
	var out []HopRow
	for _, va := range s.Vantages {
		out = append(out, hopTable(va, va.KeptSites(SP))...)
	}
	return out
}

// SPRow is one column of Table 8 (or 10 when Worse/Small collapse
// into "Other").
type SPRow struct {
	Vantage        store.Vantage
	FracComparable float64
	FracZeroMode   float64
	FracSmall      float64
	FracWorse      float64
	NASes          int
	XCheckPos      int
	XCheckNeg      int
}

// spCategories categorizes one vantage's SP destination ASes. The
// result is memoized: Table 8, Table 10, and the good-AS coverage
// analysis all consume it.
func (va *VantageAnalysis) spCategories() map[int]ASCategory {
	if va.spCats == nil {
		out := make(map[int]ASCategory)
		for _, g := range va.GroupByAS(SP) {
			out[g.AS] = Categorize(g, va.Th.CompTol, va.Th.SmallAS)
		}
		va.spCats = out
	}
	return va.spCats
}

// Table8 validates H1 on SP destination ASes, including the
// cross-vantage checks: an AS in SP from several vantages must land
// in the same category everywhere (positive), else negative.
func (s *Study) Table8() []SPRow {
	cats := make([]map[int]ASCategory, len(s.Vantages))
	for i, va := range s.Vantages {
		cats[i] = va.spCategories()
	}
	var rows []SPRow
	for i, va := range s.Vantages {
		row := SPRow{Vantage: va.Vantage, NASes: len(cats[i])}
		for _, c := range cats[i] {
			switch c {
			case ASComparable:
				row.FracComparable++
			case ASZeroMode:
				row.FracZeroMode++
			case ASSmall:
				row.FracSmall++
			default:
				row.FracWorse++
			}
		}
		if row.NASes > 0 {
			n := float64(row.NASes)
			row.FracComparable /= n
			row.FracZeroMode /= n
			row.FracSmall /= n
			row.FracWorse /= n
		}
		// Cross-checks: ASes shared with any other vantage's SP set.
		for as, c := range cats[i] {
			shared, agree := false, true
			for j := range cats {
				if j == i {
					continue
				}
				if other, ok := cats[j][as]; ok {
					shared = true
					if other != c {
						agree = false
					}
				}
			}
			if shared {
				if agree {
					row.XCheckPos++
				} else {
					row.XCheckNeg++
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// DPRow is one column of Table 11 (or 12 with only the comparable
// fraction).
type DPRow struct {
	Vantage        store.Vantage
	FracComparable float64
	FracZeroMode   float64
	NASes          int
}

// Table11 validates H2: DP destination ASes rarely see comparable
// performance.
func (s *Study) Table11() []DPRow {
	var rows []DPRow
	for _, va := range s.Vantages {
		row := DPRow{Vantage: va.Vantage}
		groups := va.GroupByAS(DP)
		row.NASes = len(groups)
		for _, g := range groups {
			switch Categorize(g, va.Th.CompTol, va.Th.SmallAS) {
			case ASComparable:
				row.FracComparable++
			case ASZeroMode:
				row.FracZeroMode++
			}
		}
		if row.NASes > 0 {
			row.FracComparable /= float64(row.NASes)
			row.FracZeroMode /= float64(row.NASes)
		}
		rows = append(rows, row)
	}
	return rows
}

// CoverageRow is one column of Table 13.
type CoverageRow struct {
	Vantage store.Vantage
	// Frac holds the share of DP destination ASes whose IPv6 path
	// consists of 100%, [75,100), [50,75), [25,50), [0,25) known-good
	// ASes.
	Frac  [5]float64
	NDsts int
}

// GoodV6ASes returns the union, across vantages, of ASes appearing on
// IPv6 paths to SP destination ASes with comparable performance —
// ASes whose data plane demonstrably does not degrade IPv6.
func (s *Study) GoodV6ASes() map[int]bool {
	good := make(map[int]bool)
	for _, va := range s.Vantages {
		for as, cat := range va.spCategories() {
			if cat != ASComparable {
				continue
			}
			if p := va.snap.LatestPath(va.Vantage, topo.V6, as); p != nil {
				for _, a := range p {
					good[a] = true
				}
			}
		}
	}
	return good
}

// Table13 reports how much of each DP destination's IPv6 path is made
// of known-good ASes.
func (s *Study) Table13() []CoverageRow {
	good := s.GoodV6ASes()
	var rows []CoverageRow
	for _, va := range s.Vantages {
		var fracs []float64
		for _, g := range va.GroupByAS(DP) {
			p := va.snap.LatestPath(va.Vantage, topo.V6, g.AS)
			if len(p) == 0 {
				continue
			}
			hit := 0
			for _, a := range p {
				if good[a] {
					hit++
				}
			}
			fracs = append(fracs, float64(hit)/float64(len(p)))
		}
		row := CoverageRow{Vantage: va.Vantage, NDsts: len(fracs)}
		counts := stats.ShareBuckets(fracs)
		for i, c := range counts {
			if len(fracs) > 0 {
				row.Frac[i] = float64(c) / float64(len(fracs))
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// BetterV6Profile supports Section 5.5's (negative) finding: do the
// sites where IPv6 outperforms IPv4 share a common property? It
// compares the class mix of better-IPv6 sites against the class mix
// of all kept sites; a dominant trait would show as a large share
// deviation.
type BetterV6Profile struct {
	Vantage store.Vantage
	Total   int // kept dual-stack sites
	Better  int // of those, IPv6 strictly faster

	// Share of each class among better-IPv6 sites vs among all kept
	// sites, and the largest absolute deviation between the two.
	BetterShare  map[Class]float64
	BaseShare    map[Class]float64
	MaxDeviation float64
}

// BetterV6 computes the profile for one vantage.
func (va *VantageAnalysis) BetterV6() BetterV6Profile {
	p := BetterV6Profile{
		Vantage:     va.Vantage,
		BetterShare: map[Class]float64{},
		BaseShare:   map[Class]float64{},
	}
	baseCount := map[Class]int{}
	betterCount := map[Class]int{}
	for _, s := range va.KeptSites() {
		p.Total++
		baseCount[s.Class]++
		if s.MeanV6 > s.MeanV4 {
			p.Better++
			betterCount[s.Class]++
		}
	}
	if p.Total == 0 || p.Better == 0 {
		return p
	}
	for _, c := range []Class{DL, SP, DP, ClassUnknown} {
		p.BaseShare[c] = float64(baseCount[c]) / float64(p.Total)
		p.BetterShare[c] = float64(betterCount[c]) / float64(p.Better)
		d := p.BetterShare[c] - p.BaseShare[c]
		if d < 0 {
			d = -d
		}
		if d > p.MaxDeviation {
			p.MaxDeviation = d
		}
	}
	return p
}

// V6FasterOdds returns the fraction of kept dual-stack sites
// (optionally filtered) whose IPv6 mean speed beats IPv4 — Fig. 3b's
// metric.
func (va *VantageAnalysis) V6FasterOdds(filter func(SiteAgg) bool) float64 {
	total, faster := 0, 0
	for _, s := range va.KeptSites() {
		if filter != nil && !filter(s) {
			continue
		}
		total++
		if s.MeanV6 > s.MeanV4 {
			faster++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(faster) / float64(total)
}
