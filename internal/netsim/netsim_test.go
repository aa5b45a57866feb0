package netsim

import (
	"math/rand"
	"testing"

	"v6web/internal/alexa"
	"v6web/internal/bgp"
	"v6web/internal/topo"
	"v6web/internal/websim"
)

type fixture struct {
	g   *topo.Graph
	m   *Model
	cat *websim.Catalog
}

func newFixture(t *testing.T, nAS int, seed int64) *fixture {
	t.Helper()
	g, err := topo.Generate(topo.DefaultGenConfig(nAS, seed))
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	ad := alexa.NewAdoption(seed, alexa.DefaultTimeline())
	cat, err := websim.NewCatalog(g, ad, websim.DefaultConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{g: g, m: m, cat: cat}
}

func (f *fixture) pathTo(t *testing.T, dst int, fam topo.Family) bgp.Path {
	t.Helper()
	c := bgp.NewComputer(f.g)
	c.Routes(dst, fam)
	return c.PathFrom(0)
}

func TestConfigValidate(t *testing.T) {
	g, _ := topo.Generate(topo.DefaultGenConfig(100, 1))
	bad := []func(*Config){
		func(c *Config) { c.BaseRate = 0 },
		func(c *Config) { c.HopAlpha = -1 },
		func(c *Config) { c.TunnelPenalty = 0 },
		func(c *Config) { c.TunnelPenalty = 1.2 },
		func(c *Config) { c.V6EdgePenalty = 0 },
		func(c *Config) { c.EdgeSigma = -0.1 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig(1)
		mut(&cfg)
		if _, err := New(g, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEdgeQualityFamilyParity(t *testing.T) {
	// H1 ground truth: the same native edge has identical quality
	// regardless of which direction or family queries it.
	f := newFixture(t, 300, 2)
	if f.m.edgeQuality(3, 7) != f.m.edgeQuality(7, 3) {
		t.Fatal("edge quality direction-sensitive")
	}
	p := f.pathTo(t, 150, topo.V4)
	if p == nil || len(p) < 2 {
		t.Skip("degenerate path")
	}
	// Evaluate the same physical path under both families where
	// every edge is v6-enabled; quality must be identical with
	// V6EdgePenalty = 1.
	ppV4 := f.m.PathPerf(p, topo.V4)
	// Confirm the v4 evaluation is deterministic.
	if f.m.PathPerf(p, topo.V4) != ppV4 {
		t.Fatal("PathPerf not deterministic")
	}
}

func TestPathPerfSameVisiblePathSameQuality(t *testing.T) {
	// For a path whose every edge is natively v6-enabled, v4 and v6
	// PathPerf agree exactly under parity.
	f := newFixture(t, 600, 3)
	c := bgp.NewComputer(f.g)
	checked := 0
	for dst := 0; dst < f.g.N() && checked < 5; dst++ {
		if !f.g.AS(dst).V6 {
			continue
		}
		c.Routes(dst, topo.V6)
		for src := 0; src < f.g.N(); src++ {
			if !f.g.AS(src).V6 || src == dst {
				continue
			}
			p := bgp.Path(c.PathFrom(src))
			if p == nil {
				continue
			}
			// All edges native v6?
			allNative := true
			for i := 0; i+1 < len(p); i++ {
				n, ok := bgp.EdgeOnPath(f.g, p[i], p[i+1], topo.V6)
				if !ok || n.Tunnel {
					allNative = false
					break
				}
				if _, ok4 := bgp.EdgeOnPath(f.g, p[i], p[i+1], topo.V4); !ok4 {
					allNative = false
					break
				}
			}
			if !allNative {
				continue
			}
			v6pp := f.m.PathPerf(p, topo.V6)
			v4pp := f.m.PathPerf(p, topo.V4)
			if v6pp.Quality != v4pp.Quality || v6pp.EffHops != v4pp.EffHops {
				t.Fatalf("parity broken on %v: v6=%+v v4=%+v", p, v6pp, v4pp)
			}
			checked++
			break
		}
	}
	if checked == 0 {
		t.Skip("no all-native v6 path found")
	}
}

func TestPathPerfTunnel(t *testing.T) {
	f := newFixture(t, 2000, 4)
	// Find a tunnel edge.
	for i := 0; i < f.g.N(); i++ {
		for _, n := range f.g.RawNeighbors(i) {
			if !n.Tunnel || n.Rel != topo.RelProvider {
				continue
			}
			p := bgp.Path{i, n.Idx}
			pp := f.m.PathPerf(p, topo.V6)
			if !pp.HasTunnel {
				t.Fatal("tunnel not flagged")
			}
			if pp.EffHops != 1+n.HiddenHops {
				t.Fatalf("eff hops %d, want %d", pp.EffHops, 1+n.HiddenHops)
			}
			if pp.VisHops != 1 {
				t.Fatalf("visible hops %d, want 1", pp.VisHops)
			}
			// Tunnel path must be slower than an equivalent native
			// 1-hop path would be.
			if pp.PathFactor >= f.m.hopFactor(1) {
				t.Fatalf("tunnel path factor %v not penalized", pp.PathFactor)
			}
			return
		}
	}
	t.Skip("no tunnel in this seed")
}

func TestHopFactorMonotone(t *testing.T) {
	f := newFixture(t, 100, 5)
	prev := f.m.hopFactor(0)
	for h := 1; h <= 8; h++ {
		cur := f.m.hopFactor(h)
		if cur > prev {
			t.Fatalf("hop factor not decreasing at %d", h)
		}
		prev = cur
	}
	if f.m.hopFactor(0) != 1 || f.m.hopFactor(1) != 1 {
		t.Fatal("0/1-hop factor should be 1")
	}
}

func TestPathPerfEmpty(t *testing.T) {
	f := newFixture(t, 100, 6)
	if pp := f.m.PathPerf(nil, topo.V4); pp.PathFactor != 0 {
		t.Fatal("nil path has nonzero factor")
	}
	pp := f.m.PathPerf(bgp.Path{5}, topo.V4)
	if pp.Quality != 1 || pp.EffHops != 0 || pp.HopFactor != 1 {
		t.Fatalf("self path perf %+v", pp)
	}
}

func TestPathPerfMissingEdge(t *testing.T) {
	f := newFixture(t, 100, 7)
	// Find two non-adjacent ASes.
	for b := 1; b < f.g.N(); b++ {
		if _, ok := bgp.EdgeOnPath(f.g, 0, b, topo.V4); !ok {
			pp := f.m.PathPerf(bgp.Path{0, b}, topo.V4)
			if pp.PathFactor != 0 {
				t.Fatal("missing edge produced nonzero factor")
			}
			return
		}
	}
	t.Skip("AS 0 adjacent to all")
}

// roundSpeed evaluates RoundSpeedPerf from vantage AS 0 over p, as
// the monitor does with its cached vantage quality and path
// characteristics.
func (f *fixture) roundSpeed(site *websim.Site, p bgp.Path, fam topo.Family, tFrac float64, round int) float64 {
	return f.m.RoundSpeedPerf(f.m.VantageQuality(0), site, f.m.PathPerf(p, fam), fam, tFrac, round)
}

func TestRoundSpeedPlausibleRange(t *testing.T) {
	f := newFixture(t, 600, 8)
	p := f.pathTo(t, 300, topo.V4)
	site := f.cat.Site(1, 100)
	sp := f.roundSpeed(site, p, topo.V4, 0.5, 3)
	if sp <= 1 || sp > 500 {
		t.Fatalf("round speed %v kB/s implausible", sp)
	}
}

func TestRoundSpeedDeterministic(t *testing.T) {
	f := newFixture(t, 400, 9)
	p := f.pathTo(t, 200, topo.V4)
	site := f.cat.Site(2, 50)
	a := f.roundSpeed(site, p, topo.V4, 0.3, 7)
	b := f.roundSpeed(site, p, topo.V4, 0.3, 7)
	if a != b {
		t.Fatal("round speed not deterministic")
	}
	c := f.roundSpeed(site, p, topo.V4, 0.3, 8)
	if a == c {
		t.Fatal("round noise absent")
	}
}

func TestRoundSpeedBadV6Server(t *testing.T) {
	f := newFixture(t, 600, 10)
	// Find a dual SL site with a bad v6 server.
	for id := int64(0); id < 50000; id++ {
		s := f.cat.Site(alexa.SiteID(id), 50)
		if s.V6AS < 0 || s.DL() || !s.BadV6Server {
			continue
		}
		if !f.g.AS(s.V4AS).V6 {
			continue
		}
		p := f.pathTo(t, s.V4AS, topo.V4)
		// Average over rounds to wash noise out.
		var v4sum, v6sum float64
		for r := 0; r < 40; r++ {
			v4sum += f.roundSpeed(s, p, topo.V4, 0.5, r)
			v6sum += f.roundSpeed(s, p, topo.V6, 0.5, r)
		}
		if v6sum >= v4sum*0.9 {
			t.Fatalf("bad v6 server not slower: v6=%v v4=%v", v6sum/40, v4sum/40)
		}
		return
	}
	t.Skip("no bad-server SL site found")
}

func TestSampleSpeedNoise(t *testing.T) {
	f := newFixture(t, 100, 11)
	rng := rand.New(rand.NewSource(1))
	var sum float64
	n := 2000
	for i := 0; i < n; i++ {
		v := f.m.SampleSpeed(50, rng)
		if v <= 0 {
			t.Fatal("non-positive sample speed")
		}
		sum += v
	}
	mean := sum / float64(n)
	if mean < 47 || mean > 53 {
		t.Fatalf("sample mean %v far from 50", mean)
	}
	if f.m.SampleSpeed(0, rng) != 0 {
		t.Fatal("zero round speed should sample to 0")
	}
}

func TestVantageQualitySpread(t *testing.T) {
	f := newFixture(t, 300, 12)
	qs := map[float64]bool{}
	for v := 0; v < 10; v++ {
		qs[f.m.VantageQuality(v)] = true
	}
	if len(qs) < 9 {
		t.Fatalf("vantage qualities collide: %d distinct", len(qs))
	}
}

func TestSpeedDecreasesWithHops(t *testing.T) {
	// Aggregate: mean PathFactor at higher hop counts is lower
	// (the Table 7/9 shape).
	f := newFixture(t, 1500, 13)
	c := bgp.NewComputer(f.g)
	sums := map[int][2]float64{} // hops -> {sum, count}
	for dst := 0; dst < f.g.N(); dst += 13 {
		c.Routes(dst, topo.V4)
		for src := 0; src < f.g.N(); src += 17 {
			p := bgp.Path(c.PathFrom(src))
			if p == nil || p.Hops() < 1 || p.Hops() > 5 {
				continue
			}
			pp := f.m.PathPerf(p, topo.V4)
			e := sums[p.Hops()]
			e[0] += pp.PathFactor
			e[1]++
			sums[p.Hops()] = e
		}
	}
	mean := func(h int) float64 {
		e := sums[h]
		if e[1] == 0 {
			return -1
		}
		return e[0] / e[1]
	}
	m2, m4 := mean(2), mean(4)
	if m2 < 0 || m4 < 0 {
		t.Skip("not enough path-length diversity")
	}
	if m4 >= m2 {
		t.Fatalf("path factor not decreasing: 2 hops %v, 4 hops %v", m2, m4)
	}
}
