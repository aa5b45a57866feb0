// Command v6topo generates a synthetic AS-level topology and prints
// its vital statistics: tier sizes, IPv6 capability, edge counts per
// family, tunnels, and a reachability check. It is the substrate
// inspector for the campaign tools — the same generator seed given
// here is what v6mon's campaign runner builds its RIBs from, so
// v6topo is the quick way to sanity-check a topology before
// committing it to a multi-round (and possibly checkpointed,
// resumable) monitoring campaign.
//
// With -scenario, the topology is the one a scenario pack's campaign
// would build (its TopoOverride, or the default generator at the
// pack's size and seed), so a pack's world can be inspected before
// running it.
//
// Usage:
//
//	v6topo [-ases 1500] [-seed 42] [-parity 0.7]
//	v6topo -scenario broken-tunnels [-set topo.ases=500]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"v6web/internal/bgp"
	"v6web/internal/cli"
	"v6web/internal/scenario"
	"v6web/internal/topo"
)

func main() {
	var (
		ases   = flag.Int("ases", 1500, "number of ASes")
		seed   = flag.Int64("seed", 42, "generation seed")
		parity = flag.Float64("parity", -1, "IPv6 peering parity override (0..1, negative keeps default)")
		pack   = flag.String("scenario", "", "inspect a scenario pack's topology: built-in name, pack file, or \"list\" (replaces -ases/-seed; combining them is an error)")
	)
	var sets scenario.Overrides
	flag.Var(&sets, "set", "spec override as a dotted path, e.g. -set topo.ases=500 (repeatable; needs -scenario)")
	flag.Parse()

	if *pack == "list" {
		if err := scenario.Describe(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *pack != "" {
		// -parity is guarded too: silently stacking it on a pack's
		// topology would print statistics for a world the pack's
		// campaign never builds.
		if bad := cli.ExplicitFlags(flag.CommandLine, "ases", "seed", "parity"); len(bad) > 0 {
			fatal(fmt.Errorf("-%s applies only without -scenario; use -set spec overrides instead (e.g. -set topo.v6_edge_parity=0.5)", strings.Join(bad, ", -")))
		}
	}
	cfg, err := genConfig(*pack, sets, *ases, *seed)
	if err != nil {
		fatal(err)
	}
	if *parity >= 0 {
		cfg.V6EdgeParity = *parity
	}
	g, err := topo.Generate(cfg)
	if err != nil {
		fatal(err)
	}
	if err := g.Validate(); err != nil {
		fatal(err)
	}

	tiers := map[topo.Tier]int{}
	v6ByTier := map[topo.Tier]int{}
	tunnels, brokers, cdns := 0, 0, 0
	for i := 0; i < g.N(); i++ {
		a := g.AS(i)
		tiers[a.Tier]++
		if a.V6 {
			v6ByTier[a.Tier]++
		}
		if a.TunnelBroker {
			brokers++
		}
		if a.CDN {
			cdns++
		}
		for _, n := range g.RawNeighbors(i) {
			if n.Tunnel {
				tunnels++
			}
		}
	}
	tunnels /= 2

	fmt.Printf("ASes: %d  (tier1 %d, tier2 %d, stub %d)\n",
		g.N(), tiers[topo.Tier1], tiers[topo.Tier2], tiers[topo.Stub])
	fmt.Printf("IPv6-capable: %d (%.1f%%)  tier1 %d/%d  tier2 %d/%d  stub %d/%d\n",
		g.CountV6(), 100*float64(g.CountV6())/float64(g.N()),
		v6ByTier[topo.Tier1], tiers[topo.Tier1],
		v6ByTier[topo.Tier2], tiers[topo.Tier2],
		v6ByTier[topo.Stub], tiers[topo.Stub])
	fmt.Printf("edges: IPv4 %d, IPv6 %d (%.1f%% parity in practice)\n",
		g.EdgeCount(topo.V4), g.EdgeCount(topo.V6),
		100*float64(g.EdgeCount(topo.V6))/float64(g.EdgeCount(topo.V4)))
	fmt.Printf("tunnels: %d (brokers: %d)   CDN ASes: %d\n", tunnels, brokers, cdns)

	// Path-length profile from AS 0.
	c := bgp.NewComputer(g)
	for _, fam := range []topo.Family{topo.V4, topo.V6} {
		hist := map[int]int{}
		reach := 0
		for dst := 0; dst < g.N(); dst++ {
			c.Routes(dst, fam)
			if p := c.PathFrom(0); p != nil {
				reach++
				hist[len(p)-1]++
			}
		}
		fmt.Printf("%s from AS 0: %d reachable, hop histogram:", fam, reach)
		for h := 0; h <= 8; h++ {
			if hist[h] > 0 {
				fmt.Printf(" %d:%d", h, hist[h])
			}
		}
		fmt.Println()
	}
}

// genConfig resolves the generator configuration from a scenario pack
// or the classic flags.
func genConfig(pack string, sets scenario.Overrides, ases int, seed int64) (topo.GenConfig, error) {
	if pack == "" {
		if len(sets) > 0 {
			return topo.GenConfig{}, fmt.Errorf("-set overrides a scenario spec; it needs -scenario")
		}
		return topo.DefaultGenConfig(ases, seed), nil
	}
	comp, err := scenario.LoadCompiled(pack, sets)
	if err != nil {
		return topo.GenConfig{}, err
	}
	if comp.Name != "" {
		fmt.Printf("scenario: %s\n", comp.Name)
	}
	if comp.Config.TopoOverride != nil {
		return *comp.Config.TopoOverride, nil
	}
	return topo.DefaultGenConfig(comp.Config.NASes, comp.Config.Seed), nil
}

func fatal(err error) { cli.Fatal("v6topo", err) }
