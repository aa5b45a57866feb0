// Package netsim is the synthetic data plane: it turns an AS-level
// path plus a site's server characteristics into download speeds and
// per-download times.
//
// The model encodes the paper's two hypotheses as configurable ground
// truth so the measurement-and-analysis pipeline can re-discover them:
//
//   - H1 (data-plane parity): a native edge's quality is a pure
//     function of the edge, independent of address family. IPv6 over
//     the same AS path therefore performs like IPv4, modulo server
//     effects. The V6EdgePenalty knob (default 1.0 = parity) exists
//     for ablation.
//   - H2 (routing differences): IPv6 paths that differ from IPv4 are
//     typically longer or tunnel-ridden; speed degrades with hop
//     count, so routing disparity — not the data plane — produces the
//     observed IPv6 deficit. Tunnels hide hops (shorter apparent AS
//     paths) while paying a quality penalty, reproducing Table 7's
//     low-hop IPv6 artefact.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"v6web/internal/bgp"
	"v6web/internal/det"
	"v6web/internal/topo"
	"v6web/internal/websim"
)

// Config parameterizes the data-plane model.
type Config struct {
	Seed int64

	// BaseRate is the nominal one-hop download speed in kbytes/sec,
	// calibrated to the paper's 20–110 kB/s range.
	BaseRate float64

	// HopAlpha controls per-hop degradation:
	// factor = 1 / (1 + HopAlpha * max(0, hops-1)).
	HopAlpha float64

	// EdgeSigma is the lognormal sigma of per-edge quality.
	EdgeSigma float64

	// VantageSigma spreads vantage-local access quality, producing
	// the cross-vantage level differences of Tables 7 and 9.
	VantageSigma float64

	// TunnelPenalty multiplies the quality of tunnel edges.
	TunnelPenalty float64

	// V6EdgePenalty multiplies every native v6 edge's quality.
	// 1.0 is the paper's validated world (H1 parity); lower values
	// ablate H1.
	V6EdgePenalty float64

	// NoiseRound is the lognormal sigma of per-(site,round) speed
	// variation shared by both families.
	NoiseRound float64

	// NoiseFam is additional per-(site,round,family) variation.
	NoiseFam float64

	// NoiseSample is the lognormal sigma of individual downloads
	// within a round (drives the tool's CI stop rule).
	NoiseSample float64

	// RTTBase and RTTPerHop model per-request setup time (DNS + TCP
	// handshake): setup = RTTBase + EffHops * RTTPerHop. Small pages
	// over long paths pay proportionally more, as in reality.
	RTTBase   time.Duration
	RTTPerHop time.Duration
}

// DefaultConfig returns the calibrated model.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:          seed,
		BaseRate:      95,
		HopAlpha:      0.38,
		EdgeSigma:     0.26,
		VantageSigma:  0.30,
		TunnelPenalty: 0.62,
		V6EdgePenalty: 1.0,
		NoiseRound:    0.10,
		NoiseFam:      0.03,
		NoiseSample:   0.04,
		RTTBase:       20 * time.Millisecond,
		RTTPerHop:     12 * time.Millisecond,
	}
}

// Validate reports config errors.
func (c Config) Validate() error {
	if c.BaseRate <= 0 {
		return fmt.Errorf("netsim: BaseRate %v <= 0", c.BaseRate)
	}
	if c.HopAlpha < 0 {
		return fmt.Errorf("netsim: HopAlpha %v < 0", c.HopAlpha)
	}
	if c.TunnelPenalty <= 0 || c.TunnelPenalty > 1 {
		return fmt.Errorf("netsim: TunnelPenalty %v out of (0,1]", c.TunnelPenalty)
	}
	if c.V6EdgePenalty <= 0 || c.V6EdgePenalty > 1 {
		return fmt.Errorf("netsim: V6EdgePenalty %v out of (0,1]", c.V6EdgePenalty)
	}
	for _, s := range []float64{c.EdgeSigma, c.VantageSigma, c.NoiseRound, c.NoiseFam, c.NoiseSample} {
		if s < 0 {
			return fmt.Errorf("netsim: negative sigma %v", s)
		}
	}
	if c.RTTBase < 0 || c.RTTPerHop < 0 {
		return fmt.Errorf("netsim: negative RTT parameters")
	}
	return nil
}

// Model computes path and download performance over a topology.
type Model struct {
	cfg Config
	g   *topo.Graph
}

// New builds a model over g.
func New(g *topo.Graph, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg, g: g}, nil
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// edgeQuality returns the family-independent quality of the native
// edge a—b (order-insensitive). H1 lives here: no family key.
func (m *Model) edgeQuality(a, b int) float64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return det.Lognormal(0, m.cfg.EdgeSigma, uint64(m.cfg.Seed), uint64(lo), uint64(hi), 0xED6E)
}

// VantageQuality returns the stable local access quality of a vantage
// AS, spreading absolute speed levels across vantage points.
func (m *Model) VantageQuality(vantage int) float64 {
	return det.Lognormal(0, m.cfg.VantageSigma, uint64(m.cfg.Seed), uint64(vantage), 0x7A97)
}

// PathPerf describes the data-plane characteristics of one AS path.
type PathPerf struct {
	Quality    float64 // bottleneck (minimum) edge quality, 1.0 = nominal
	EffHops    int     // true hop count including tunnel-hidden hops
	VisHops    int     // visible AS-path hop count (what BGP shows)
	HasTunnel  bool
	HopFactor  float64 // degradation factor from EffHops
	PathFactor float64 // Quality * HopFactor
}

// PathPerf evaluates a path over family fam. A nil or empty path
// yields a zero PathPerf. A single-AS path (destination in the
// vantage AS) has quality 1 and zero hops.
func (m *Model) PathPerf(p bgp.Path, fam topo.Family) PathPerf {
	if len(p) == 0 {
		return PathPerf{}
	}
	out := PathPerf{Quality: 1, VisHops: p.Hops()}
	for i := 0; i+1 < len(p); i++ {
		n, ok := bgp.EdgeOnPath(m.g, p[i], p[i+1], fam)
		if !ok {
			return PathPerf{}
		}
		q := m.edgeQuality(p[i], p[i+1])
		if n.Tunnel {
			q *= m.cfg.TunnelPenalty
			out.EffHops += 1 + n.HiddenHops
			out.HasTunnel = true
		} else {
			if fam == topo.V6 {
				q *= m.cfg.V6EdgePenalty
			}
			out.EffHops++
		}
		if q < out.Quality {
			out.Quality = q
		}
	}
	out.HopFactor = m.hopFactor(out.EffHops)
	out.PathFactor = out.Quality * out.HopFactor
	return out
}

func (m *Model) hopFactor(hops int) float64 {
	extra := float64(hops - 1)
	if extra < 0 {
		extra = 0
	}
	return 1 / (1 + m.cfg.HopAlpha*extra)
}

// RoundSpeedPerf returns the mean download speed (kbytes/sec) for a
// site fetched over a path with characteristics pp and family fam,
// from a vantage of quality vantageQ (VantageQuality), during one
// monitoring round. tFrac is the round's position in the study, in
// [0,1]; round indexes the per-round noise. The monitor evaluates it
// once per (site, family, round), with the vantage quality and the
// path's PathPerf cached, and draws each download of the round around
// it (SampleSpeed).
func (m *Model) RoundSpeedPerf(vantageQ float64, site *websim.Site, pp PathPerf, fam topo.Family, tFrac float64, round int) float64 {
	if pp.PathFactor == 0 {
		return 0
	}
	srv := site.SrvV4
	if fam == topo.V6 {
		srv = site.SrvV6
	}
	speed := m.cfg.BaseRate * vantageQ * pp.PathFactor * srv
	speed *= site.PerfMultiplier(fam, tFrac)
	// Round-level variation: a shared component (site load, general
	// congestion) plus a small family-specific one.
	seed := uint64(m.cfg.Seed)
	sid := uint64(site.ID)
	speed *= det.Lognormal(0, m.cfg.NoiseRound, seed, sid, uint64(round), 0x4149)
	speed *= det.Lognormal(0, m.cfg.NoiseFam, seed, sid, uint64(round), uint64(fam), 0xFA3)
	return speed
}

// SampleSpeed perturbs a round-mean speed into one observed download's
// speed, using the caller's RNG (the monitoring tool owns sampling
// randomness).
func (m *Model) SampleSpeed(roundSpeed float64, rng *rand.Rand) float64 {
	if roundSpeed <= 0 {
		return 0
	}
	return roundSpeed * math.Exp(rng.NormFloat64()*m.cfg.NoiseSample)
}

// SetupTime returns the per-request setup latency implied by a path:
// RTTBase plus RTTPerHop per effective hop (tunnels pay their hidden
// hops here too).
func (m *Model) SetupTime(pp PathPerf) time.Duration {
	return m.cfg.RTTBase + time.Duration(pp.EffHops)*m.cfg.RTTPerHop
}

// DownloadTimeSetup converts a page size in bytes and a speed in
// kbytes/sec into a wall-clock duration with the given per-request
// setup overhead.
func DownloadTimeSetup(pageBytes int, speedKBps float64, setup time.Duration) time.Duration {
	if speedKBps <= 0 {
		return 0
	}
	secs := float64(pageBytes) / 1000 / speedKBps
	return setup + time.Duration(secs*float64(time.Second))
}
