package core

import (
	"fmt"
	"io"
	"sort"

	"v6web/internal/analysis"
	"v6web/internal/bgp"
	"v6web/internal/ipam"
	"v6web/internal/stats"
	"v6web/internal/store"
	"v6web/internal/topo"
	"v6web/internal/traceroute"
)

// TunnelStats quantifies IPv6-in-IPv4 tunnel prevalence and impact
// from one vantage point — the "more systematic investigation of
// their prevalence and impact" Section 5.5 calls for.
type TunnelStats struct {
	Vantage store.Vantage

	V6Dests    int     // destination ASes with an IPv6 path
	Tunneled   int     // of those, paths crossing at least one tunnel
	HiddenMean float64 // mean hidden hops on tunneled paths

	// Mean IPv6 speed of kept dual-stack sites behind tunneled vs
	// native IPv6 paths, and the matching IPv4 speeds (kbytes/sec).
	SitesTunneled   int
	SitesNative     int
	V6SpeedTunneled float64
	V6SpeedNative   float64
	V4SpeedTunneled float64
	V4SpeedNative   float64
}

// V6DeficitTunneled returns 1 - v6/v4 for tunneled sites.
func (t TunnelStats) V6DeficitTunneled() float64 {
	if t.V4SpeedTunneled <= 0 {
		return 0
	}
	return 1 - t.V6SpeedTunneled/t.V4SpeedTunneled
}

// V6DeficitNative returns 1 - v6/v4 for native-path sites.
func (t TunnelStats) V6DeficitNative() float64 {
	if t.V4SpeedNative <= 0 {
		return 0
	}
	return 1 - t.V6SpeedNative/t.V4SpeedNative
}

// pathTunnel inspects an AS path for tunnel edges.
func (s *Scenario) pathTunnel(p []int) (tunneled bool, hidden int) {
	for i := 0; i+1 < len(p); i++ {
		if n, ok := bgp.EdgeOnPath(s.Graph, p[i], p[i+1], topo.V6); ok && n.Tunnel {
			tunneled = true
			hidden += n.HiddenHops
		}
	}
	return tunneled, hidden
}

// TunnelReport computes per-vantage tunnel statistics over the main
// study. The campaign must have run. The per-vantage analyses and the
// paths come from the memoized study and its snapshot.
func (s *Scenario) TunnelReport() []TunnelStats {
	study, snap := s.Study(), s.snapshot()
	var out []TunnelStats
	for _, vp := range s.analyzedVantages() {
		ts := TunnelStats{Vantage: vp.Name}
		// Prevalence across destination ASes.
		var hiddenSum, tunneledPaths float64
		for _, dst := range snap.PathDestinations(vp.Name, topo.V6) {
			p := snap.LatestPath(vp.Name, topo.V6, dst)
			if len(p) == 0 {
				continue
			}
			ts.V6Dests++
			if tun, hidden := s.pathTunnel(p); tun {
				ts.Tunneled++
				hiddenSum += float64(hidden)
				tunneledPaths++
			}
		}
		if tunneledPaths > 0 {
			ts.HiddenMean = hiddenSum / tunneledPaths
		}
		// Impact across kept dual-stack sites.
		va := study.Vantage(vp.Name)
		var w6t, w6n, w4t, w4n stats.Welford
		for _, site := range va.KeptSites() {
			if site.V6AS < 0 {
				continue
			}
			p := snap.LatestPath(vp.Name, topo.V6, site.V6AS)
			if len(p) == 0 {
				continue
			}
			if tun, _ := s.pathTunnel(p); tun {
				ts.SitesTunneled++
				w6t.Add(site.MeanV6)
				w4t.Add(site.MeanV4)
			} else {
				ts.SitesNative++
				w6n.Add(site.MeanV6)
				w4n.Add(site.MeanV4)
			}
		}
		ts.V6SpeedTunneled = w6t.Mean()
		ts.V6SpeedNative = w6n.Mean()
		ts.V4SpeedTunneled = w4t.Mean()
		ts.V4SpeedNative = w4n.Mean()
		out = append(out, ts)
	}
	return out
}

// WriteTunnelReport renders the tunnel extension as text.
func WriteTunnelReport(w io.Writer, rows []TunnelStats) {
	fmt.Fprintln(w, "Extension: IPv6 tunnel prevalence and impact (Section 5.5 follow-up)")
	fmt.Fprintf(w, "  %-10s %10s %10s %12s %14s %14s\n",
		"vantage", "v6 dests", "tunneled", "hidden hops", "v6 deficit tun", "v6 deficit nat")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %10d %10d %12.1f %13.1f%% %13.1f%%\n",
			r.Vantage, r.V6Dests, r.Tunneled, r.HiddenMean,
			100*r.V6DeficitTunneled(), 100*r.V6DeficitNative())
	}
	fmt.Fprintln(w)
}

// CoverageGrowth addresses Section 6's call for more vantage points:
// it returns the cumulative number of distinct ASes crossed over IPv6
// as vantages are added one at a time (AS_PATH vantages, config
// order), showing the marginal coverage each new vantage buys.
func (s *Scenario) CoverageGrowth() []int {
	snap := s.snapshot()
	seen := map[int]bool{}
	var out []int
	for _, vp := range s.analyzedVantages() {
		for a := range snap.ASesCrossed(vp.Name, topo.V6) {
			seen[a] = true
		}
		out = append(out, len(seen))
	}
	return out
}

// WriteCoverageGrowth renders the coverage-growth extension.
func WriteCoverageGrowth(w io.Writer, s *Scenario) {
	growth := s.CoverageGrowth()
	fmt.Fprintln(w, "Extension: IPv6 AS coverage as vantage points are added (Section 6 follow-up)")
	names := make([]string, 0, len(growth))
	for _, vp := range s.analyzedVantages() {
		names = append(names, string(vp.Name))
	}
	for i, g := range growth {
		fmt.Fprintf(w, "  +%-10s -> %4d ASes crossed (IPv6)\n", names[i], g)
	}
	total := s.Graph.CountV6()
	if len(growth) > 0 && total > 0 {
		fmt.Fprintf(w, "  (of %d v6-capable ASes in the topology: %.1f%% coverage)\n",
			total, 100*float64(growth[len(growth)-1])/float64(total))
	}
	fmt.Fprintln(w)
}

// SortTunnelStats orders rows by vantage name (stable rendering).
func SortTunnelStats(rows []TunnelStats) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Vantage < rows[j].Vantage })
}

// TracerouteCheck validates Section 3's methodological choice of BGP
// AS paths over traceroute: it probes every IPv6-destination AS from
// one vantage and reports the completion rate (the paper saw < 50%)
// and the AS-level agreement rate of the runs that did return hops.
type TracerouteCheck struct {
	Vantage    store.Vantage
	Runs       int
	Complete   int // destination answered
	Agreements int // inferred AS path consistent with the BGP path
	Compared   int // runs with at least one mapped hop
}

// RunTracerouteCheck executes the methodology check for one vantage.
func (s *Scenario) RunTracerouteCheck(vantage store.Vantage) (TracerouteCheck, error) {
	out := TracerouteCheck{Vantage: vantage}
	fetch, ok := s.fetchers[vantage]
	if !ok {
		return out, fmt.Errorf("core: unknown vantage %q", vantage)
	}
	plan, err := ipam.NewPlan(s.Graph)
	if err != nil {
		return out, err
	}
	prober, err := traceroute.NewProber(s.Graph, plan, traceroute.DefaultConfig(s.Cfg.Seed))
	if err != nil {
		return out, err
	}
	snap := s.snapshot()
	for _, dst := range snap.PathDestinations(vantage, topo.V6) {
		p := bgp.Path(snap.LatestPath(vantage, topo.V6, dst))
		if len(p) < 2 {
			continue
		}
		res := prober.Run(p, topo.V6, int64(dst))
		out.Runs++
		if res.Complete {
			out.Complete++
		}
		inferred := res.InferASPath(fetch.VantageAS)
		if len(inferred) > 1 {
			out.Compared++
			if traceroute.AgreesWith(inferred, p) {
				out.Agreements++
			}
		}
	}
	return out, nil
}

// WriteTracerouteCheck renders the methodology check.
func WriteTracerouteCheck(w io.Writer, c TracerouteCheck) {
	fmt.Fprintln(w, "Section 3 check: traceroute vs BGP AS paths (IPv6 destinations)")
	if c.Runs == 0 {
		fmt.Fprintln(w, "  no destinations probed")
		fmt.Fprintln(w)
		return
	}
	fmt.Fprintf(w, "  %s: %d runs, %.0f%% complete (paper: <50%%); of %d comparable runs, %.0f%% agree with the BGP AS path\n",
		c.Vantage, c.Runs, 100*float64(c.Complete)/float64(c.Runs),
		c.Compared, 100*float64(c.Agreements)/float64(max(c.Compared, 1)))
	fmt.Fprintln(w)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// BetterV6Profiles computes Section 5.5's trait search per vantage,
// over the memoized study.
func (s *Scenario) BetterV6Profiles() []analysis.BetterV6Profile {
	var out []analysis.BetterV6Profile
	for _, va := range s.Study().Vantages {
		out = append(out, va.BetterV6())
	}
	return out
}

// WriteBetterV6 renders the Section 5.5 trait search.
func WriteBetterV6(w io.Writer, rows []analysis.BetterV6Profile) {
	fmt.Fprintln(w, "Section 5.5: do better-IPv6 sites share a dominant trait?")
	fmt.Fprintf(w, "  %-10s %8s %8s %24s %24s %10s\n",
		"vantage", "kept", "v6>v4", "share DL/SP/DP (v6>v4)", "share DL/SP/DP (all)", "max dev")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %8d %8d %7.0f%%/%4.0f%%/%4.0f%% %9.0f%%/%4.0f%%/%4.0f%% %9.1f%%\n",
			r.Vantage, r.Total, r.Better,
			100*r.BetterShare[analysis.DL], 100*r.BetterShare[analysis.SP], 100*r.BetterShare[analysis.DP],
			100*r.BaseShare[analysis.DL], 100*r.BaseShare[analysis.SP], 100*r.BaseShare[analysis.DP],
			100*r.MaxDeviation)
	}
	fmt.Fprintln(w)
}
