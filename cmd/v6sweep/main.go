// Command v6sweep re-runs the full study across a parameter sweep and
// tabulates how the paper's findings move — the what-if companion to
// v6report. Sweep points are independent campaigns and run
// concurrently on a bounded worker pool (-parallel); Ctrl-C stops the
// in-flight campaigns at their next round boundary.
//
// Two kinds of sweep are available. The built-in sweeps (-sweep)
// target the design dimensions DESIGN.md calls out: IPv6 peering
// parity, tunnel prevalence, and the deficient-server mix. The
// generic sweep (-over) varies ANY scenario-spec field over a value
// list, with the base world coming from a scenario pack (-scenario, a
// built-in name or pack file) plus fixed -set overrides — so a new
// what-if dimension needs no code at all.
//
// Usage:
//
//	v6sweep -sweep parity   # peering parity 0.4 .. 1.0
//	v6sweep -sweep tunnels  # tunnel prevalence 0 .. 0.6
//	v6sweep -sweep servers  # deficient-server AS mix 0 .. 0.5
//	v6sweep -scenario baseline-2011 -set topo.ases=600 -set list.size=6000 \
//	        -over topo.v6_edge_parity=0.4,0.7,1.0
//	v6sweep -scenario broken-tunnels -over client.max_downloads=6,15,30
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"v6web/internal/cli"
	"v6web/internal/core"
	"v6web/internal/scenario"
	"v6web/internal/sweep"
	"v6web/internal/topo"
	"v6web/internal/websim"
)

func main() {
	var (
		which    = flag.String("sweep", "parity", "built-in sweep: parity, tunnels, servers (ignored when -over is given)")
		seed     = flag.Int64("seed", 42, "scenario seed (built-in sweeps)")
		ases     = flag.Int("ases", 900, "topology size (built-in sweeps)")
		sites    = flag.Int("sites", 9000, "list size (built-in sweeps)")
		pack     = flag.String("scenario", "", "base scenario pack for -over: built-in name, pack file, or \"list\" to print the catalog")
		over     = flag.String("over", "", "generic sweep: a spec field and its values, e.g. topo.v6_edge_parity=0.4,0.7,1.0")
		parallel = flag.Int("parallel", 0, "concurrent sweep points (0: one per CPU, capped at 4 — each point is a full campaign)")
	)
	var sets scenario.Overrides
	flag.Var(&sets, "set", "fixed spec override applied to every point, e.g. -set topo.ases=600 (repeatable; needs -scenario or -over)")
	flag.Parse()

	if *pack == "list" {
		if err := scenario.Describe(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	metrics := map[string]sweep.Metric{
		"SP-share":    asPct(sweep.SPShare),
		"H1-comp%":    asPct(sweep.H1Comparable),
		"H2-comp%":    asPct(sweep.H2Comparable),
		"DL-v4-wins%": asPct(sweep.DLV4Advantage),
		"DP-deficit%": asPct(sweep.V6DeficitDP),
	}

	var base core.Config
	var points []sweep.Point
	var title string
	var err error
	if *over != "" {
		if bad := cli.ExplicitFlags(flag.CommandLine, "sweep", "seed", "ases", "sites"); len(bad) > 0 {
			fatal(fmt.Errorf("-%s applies only to the built-in sweeps; with -over, shape the world via -scenario and -set", strings.Join(bad, ", -")))
		}
		base, points, title, err = specSweep(*pack, sets, *over)
		if err != nil {
			fatal(err)
		}
	} else {
		if len(sets) > 0 || *pack != "" {
			fatal(fmt.Errorf("-scenario/-set parameterize the generic sweep; they need -over"))
		}
		base = core.DefaultConfig(*seed)
		base.NASes = *ases
		base.ListSize = *sites
		base.Extended = 0
		base.Rounds = 28
		base.Vantages = core.ScaledVantages(base.Rounds)
		points, title, err = builtinSweep(*which)
		if err != nil {
			fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	results, err := sweep.RunContext(ctx, base, points, metrics, *parallel)
	if err != nil {
		fatal(err)
	}
	sweep.Write(os.Stdout, title, results)
}

// specSweep builds one sweep point per value of a dotted-path spec
// field, over a base scenario pack with fixed overrides applied.
func specSweep(pack string, sets scenario.Overrides, over string) (core.Config, []sweep.Point, string, error) {
	path, list, ok := strings.Cut(over, "=")
	if !ok || path == "" || list == "" {
		return core.Config{}, nil, "", fmt.Errorf("-over wants path=v1,v2,... got %q", over)
	}
	if pack == "" {
		pack = "baseline-2011"
	}
	sp, err := scenario.LoadSpec(pack, sets)
	if err != nil {
		return core.Config{}, nil, "", err
	}
	base, err := sp.Compile()
	if err != nil {
		return core.Config{}, nil, "", err
	}
	var points []sweep.Point
	for _, raw := range strings.Split(list, ",") {
		value := strings.TrimSpace(raw)
		pt := sp.Clone()
		if err := pt.Set(path, value); err != nil {
			return core.Config{}, nil, "", err
		}
		comp, err := pt.Compile()
		if err != nil {
			return core.Config{}, nil, "", fmt.Errorf("%s=%s: %w", path, value, err)
		}
		cfg := comp.Config
		points = append(points, sweep.Point{
			Label:  fmt.Sprintf("%s=%s", path, value),
			Mutate: func(c *core.Config) { *c = cfg },
		})
	}
	title := fmt.Sprintf("Sweep: %s over scenario %q", path, pack)
	return base.Config, points, title, nil
}

// builtinSweep returns the hard-wired design-dimension sweeps.
func builtinSweep(which string) ([]sweep.Point, string, error) {
	var points []sweep.Point
	var title string
	switch which {
	case "parity":
		title = "Sweep: IPv6 peering parity (the paper's recommended remedy)"
		for _, p := range []float64{0.4, 0.55, 0.7, 0.85, 1.0} {
			parity := p
			points = append(points, sweep.Point{
				Label: fmt.Sprintf("parity=%.2f", parity),
				Mutate: func(c *core.Config) {
					tc := topo.DefaultGenConfig(c.NASes, c.Seed)
					tc.V6EdgeParity = parity
					if parity == 1.0 {
						tc.TunnelFrac = 0
					}
					c.TopoOverride = &tc
				},
			})
		}
	case "tunnels":
		title = "Sweep: IPv6 tunnel prevalence (Table 7's low-hop artefact)"
		for _, f := range []float64{0, 0.15, 0.3, 0.45, 0.6} {
			frac := f
			points = append(points, sweep.Point{
				Label: fmt.Sprintf("tunnels=%.2f", frac),
				Mutate: func(c *core.Config) {
					tc := topo.DefaultGenConfig(c.NASes, c.Seed)
					tc.TunnelFrac = frac
					c.TopoOverride = &tc
				},
			})
		}
	case "servers":
		title = "Sweep: deficient IPv6 server mix (Table 8's zero-modes)"
		for _, f := range []float64{0, 0.1, 0.25, 0.5} {
			frac := f
			points = append(points, sweep.Point{
				Label: fmt.Sprintf("badmix=%.2f", frac),
				Mutate: func(c *core.Config) {
					wc := websim.DefaultConfig(c.Seed)
					wc.BadMixASFrac = frac
					if frac == 0 {
						wc.BadFracInGood = 0
					}
					c.Web = &wc
				},
			})
		}
	default:
		return nil, "", fmt.Errorf("unknown sweep %q (want parity, tunnels, or servers; or use -over)", which)
	}
	return points, title, nil
}

func asPct(m sweep.Metric) sweep.Metric {
	return func(s *core.Scenario) float64 { return 100 * m(s) }
}

func fatal(err error) { cli.Fatal("v6sweep", err) }
