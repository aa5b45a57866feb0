package scenario

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"v6web/internal/core"
	"v6web/internal/measure"
	"v6web/internal/store"
	"v6web/internal/topo"
	"v6web/internal/websim"
)

// Each built-in pack must reproduce the hard-coded construction it
// replaced: the compiled core.Config is deep-equal (and fingerprints
// match) at full scale, and a scaled-down campaign produces
// byte-identical CSVs to the hand-built config under the same
// scale-down. The hardcoded functions below are the constructions the
// CLIs and examples used before packs existed — edit them only if the
// underlying defaults deliberately change.

// smallSets is the common scale-down applied to the pack side; each
// fixture's hardSmall applies the same values by hand.
var smallSets = []string{
	"topo.ases=300", "list.size=2000", "list.extended=400",
	"schedule.rounds=8", "schedule.v6day_rounds=4",
}

// small applies the common scale-down to a hard-coded config.
func small(cfg core.Config) core.Config {
	cfg.NASes = 300
	cfg.ListSize = 2000
	cfg.Extended = 400
	cfg.Rounds = 8
	cfg.V6DayRounds = 4
	cfg.Vantages = core.ScaledVantages(8)
	if cfg.TopoOverride != nil {
		tc := *cfg.TopoOverride
		tc.NASes = 300
		base := topo.DefaultGenConfig(300, cfg.Seed)
		tc.NTier1, tc.NTier2, tc.NCDN = base.NTier1, base.NTier2, base.NCDN
		tc.NTunnelBrokers = base.NTunnelBrokers
		cfg.TopoOverride = &tc
	}
	return cfg
}

var goldenPacks = []struct {
	name string
	hard func() core.Config // the pre-pack hard-coded equivalent
}{
	{
		// cmd/v6mon, cmd/v6report defaults.
		name: "baseline-2011",
		hard: func() core.Config { return core.DefaultConfig(42) },
	},
	{
		// examples/worldipv6day.
		name: "world-ipv6-day",
		hard: func() core.Config {
			cfg := core.DefaultConfig(7)
			cfg.NASes = 1000
			cfg.ListSize = 12000
			cfg.Extended = 0
			return cfg
		},
	},
	{
		// examples/peeringparity, the "full parity, no tunnels" world.
		name: "peering-parity",
		hard: func() core.Config {
			cfg := core.DefaultConfig(11)
			cfg.NASes = 900
			cfg.ListSize = 9000
			cfg.Extended = 0
			tc := topo.DefaultGenConfig(cfg.NASes, cfg.Seed)
			tc.V6EdgeParity = 1.0
			tc.TunnelFrac = 0
			cfg.TopoOverride = &tc
			return cfg
		},
	},
	{
		// cmd/v6sweep's tunnel sweep at its heaviest point.
		name: "broken-tunnels",
		hard: func() core.Config {
			cfg := core.DefaultConfig(42)
			cfg.NASes = 900
			cfg.ListSize = 9000
			cfg.Extended = 0
			cfg.Rounds = 28
			cfg.Vantages = core.ScaledVantages(28)
			tc := topo.DefaultGenConfig(cfg.NASes, cfg.Seed)
			tc.TunnelFrac = 0.6
			cfg.TopoOverride = &tc
			return cfg
		},
	},
	{
		// The catalogue-override construction cmd/v6sweep's server
		// sweep used, pointed at a CDN wave.
		name: "cdn-rollout",
		hard: func() core.Config {
			cfg := core.DefaultConfig(42)
			cfg.NASes = 1200
			cfg.ListSize = 12000
			cfg.Extended = 0
			wc := websim.DefaultConfig(cfg.Seed)
			wc.CDNFrac = 0.25
			wc.RelocateDL = 0.15
			cfg.Web = &wc
			return cfg
		},
	},
	{
		// A Measure override as a hand construction.
		name: "impatient-client",
		hard: func() core.Config {
			cfg := core.DefaultConfig(42)
			mc := measure.DefaultConfig("", cfg.Seed)
			mc.MaxDownloads = 6
			mc.CI.Frac = 0.15
			cfg.Measure = &mc
			return cfg
		},
	},
	{
		// The true top-1M list plus Penn's ~5M extended population.
		name: "paper-scale",
		hard: func() core.Config {
			cfg := core.DefaultConfig(42)
			cfg.NASes = 4000
			cfg.ListSize = 1000000
			cfg.Extended = 5000000
			return cfg
		},
	},
	{
		// The baseline campaign under the outage schedule the paper's
		// own collection suffered: planned degradation as config, not
		// injected error. Windows sit in the early rounds so the
		// schedule stays valid under the golden-test scale-down.
		name: "vantage-outages",
		hard: func() core.Config {
			cfg := core.DefaultConfig(42)
			cfg.Outages = []core.VantageOutage{
				{Vantage: "Penn", From: 2, To: 4},
				{Vantage: "Penn", From: 5, To: 6},
			}
			return cfg
		},
	},
	{
		// The CI slice of the paper-scale campaign.
		name: "paper-scale-mini",
		hard: func() core.Config {
			cfg := core.DefaultConfig(42)
			cfg.NASes = 1200
			cfg.ListSize = 200000
			cfg.Extended = 1000000
			cfg.Rounds = 12
			cfg.V6DayRounds = 6
			cfg.Vantages = core.ScaledVantages(12)
			return cfg
		},
	},
}

func TestRegistryShipsAllGoldenPacks(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("registry has %d packs, want >= 6: %v", len(names), names)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, g := range goldenPacks {
		if !have[g.name] {
			t.Errorf("built-in pack %q missing from registry %v", g.name, names)
		}
	}
	if len(goldenPacks) != len(names) {
		t.Errorf("golden fixtures cover %d packs, registry ships %d: every pack needs a golden equivalent", len(goldenPacks), len(names))
	}
}

func TestPacksCompileToHardcodedConfigs(t *testing.T) {
	for _, g := range goldenPacks {
		g := g
		t.Run(g.name, func(t *testing.T) {
			sp, err := Load(g.name)
			if err != nil {
				t.Fatal(err)
			}
			comp, err := sp.Compile()
			if err != nil {
				t.Fatal(err)
			}
			want := g.hard()
			if !reflect.DeepEqual(comp.Config, want) {
				t.Errorf("compiled config differs from hard-coded equivalent\n got: %+v\nwant: %+v", comp.Config, want)
			}
			if got, want := comp.Config.Fingerprint(), want.Fingerprint(); got != want {
				t.Errorf("fingerprint %s != hard-coded %s", got, want)
			}
		})
	}
}

// runAndSave executes the full campaign (main study + World IPv6 Day)
// and saves both databases as CSV under dir.
func runAndSave(t *testing.T, cfg core.Config, dir string) {
	t.Helper()
	s, err := core.NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.RunWorldV6DayContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.DB.Save(filepath.Join(dir, store.SnapMain)); err != nil {
		t.Fatal(err)
	}
	if err := s.V6DayDB.Save(filepath.Join(dir, store.SnapV6Day)); err != nil {
		t.Fatal(err)
	}
}

var campaignFiles = []string{
	"main/sites.csv", "main/dns.csv", "main/samples.csv", "main/paths.csv",
	"v6day/sites.csv", "v6day/dns.csv", "v6day/samples.csv", "v6day/paths.csv",
}

func TestPackCampaignsByteIdenticalToHardcoded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2 campaigns per pack")
	}
	for _, g := range goldenPacks {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			sp, err := Load(g.name)
			if err != nil {
				t.Fatal(err)
			}
			for _, kv := range smallSets {
				if err := sp.SetKV(kv); err != nil {
					t.Fatal(err)
				}
			}
			comp, err := sp.Compile()
			if err != nil {
				t.Fatal(err)
			}
			root := t.TempDir()
			packDir := filepath.Join(root, "pack")
			hardDir := filepath.Join(root, "hard")
			runAndSave(t, comp.Config, packDir)
			runAndSave(t, small(g.hard()), hardDir)
			for _, name := range campaignFiles {
				want, err := os.ReadFile(filepath.Join(hardDir, name))
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(packDir, name))
				if err != nil {
					t.Fatal(err)
				}
				if string(want) != string(got) {
					t.Errorf("%s: pack campaign differs from hard-coded campaign (%d vs %d bytes)", name, len(got), len(want))
				}
			}
		})
	}
}
