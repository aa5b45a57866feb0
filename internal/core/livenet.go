package core

import (
	"fmt"
	"net"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/bgp"
	"v6web/internal/dnssim"
	"v6web/internal/httpsim"
	"v6web/internal/measure"
	"v6web/internal/store"
	"v6web/internal/topo"
)

// LiveStudy materializes a slice of the simulated study over real
// sockets: an authoritative DNS server (UDP+TCP) answering A/AAAA for
// the chosen sites, and two bandwidth-shaped HTTP servers — the IPv4
// plane and the IPv6 plane — whose per-site rates are the netsim
// model's predictions for the chosen vantage. The same monitoring
// engine then measures through genuine wire protocols, so end-to-end
// tests can check that the wire reproduces the simulation.
//
// When the host has no IPv6 loopback, the IPv6 plane falls back to a
// second IPv4 loopback server (see measure.LiveFetcher.V6Fallback).
type LiveStudy struct {
	Vantage store.Vantage
	DB      *store.DB

	dns  *dnssim.Server
	web4 *httpsim.Server
	web6 *httpsim.Server

	mon      *measure.Monitor
	refs     []measure.SiteRef
	predV4   map[alexa.SiteID]float64 // model-predicted kB/s per site
	predV6   map[alexa.SiteID]float64
	fallback bool
}

// RateScale multiplies shaped rates so live tests finish quickly while
// preserving v6/v4 ratios. Loopback setup overhead (DNS + TCP dial,
// well under a millisecond) stays negligible against the shortest
// shaped transfer even at this scale.
const liveRateScale = 60.0

// NewLiveStudy builds the live slice for the given vantage and sites.
// The scenario supplies topology, catalogue, model, and routes; no
// prior Run is required. Callers must Close the study.
func NewLiveStudy(s *Scenario, vantage store.Vantage, ids []alexa.SiteID) (*LiveStudy, error) {
	fetchSim, ok := s.fetchers[vantage]
	if !ok {
		return nil, fmt.Errorf("core: unknown vantage %q", vantage)
	}
	ls := &LiveStudy{
		Vantage: vantage,
		DB:      store.NewDB(),
		predV4:  make(map[alexa.SiteID]float64),
		predV6:  make(map[alexa.SiteID]float64),
	}
	zone := dnssim.NewZone()
	var err error
	ls.dns, err = dnssim.NewServer(zone, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls.web4, err = httpsim.NewServer("127.0.0.1:0")
	if err != nil {
		ls.Close()
		return nil, err
	}
	ls.web6, err = httpsim.NewServer("[::1]:0")
	if err != nil {
		ls.web6, err = httpsim.NewServer("127.0.0.1:0")
		if err != nil {
			ls.Close()
			return nil, err
		}
		ls.fallback = true
	}

	tf := s.tFrac(s.Timeline.End)
	v6Addr := net.ParseIP("::1")
	if ls.fallback {
		v6Addr = net.ParseIP("2001:db8::1")
	}
	for _, id := range ids {
		rank := s.List.FirstSeenRank(id)
		if rank == 0 {
			rank = 1000
		}
		site := s.Catalog.Site(id, rank)
		host := measure.HostName(id)
		p4 := bgp.Path(fetchSim.PathTo(site.V4AS, topo.V4, 0))
		if p4 == nil {
			continue
		}
		rate4 := s.Model.RoundSpeed(fetchSim.VantageAS, site, p4, topo.V4, tf, 0)
		ls.predV4[id] = rate4
		ls.web4.SetSite(host, httpsim.SiteConfig{PageSize: site.PageV4, RateKBps: rate4 * liveRateScale})

		var aaaa net.IP
		if site.V6AS >= 0 {
			if p6 := bgp.Path(fetchSim.PathTo(site.V6AS, topo.V6, 0)); p6 != nil {
				rate6 := s.Model.RoundSpeed(fetchSim.VantageAS, site, p6, topo.V6, tf, 0)
				ls.predV6[id] = rate6
				ls.web6.SetSite(host, httpsim.SiteConfig{PageSize: site.PageV6, RateKBps: rate6 * liveRateScale})
				aaaa = v6Addr
			}
		}
		if err := zone.SetSite(host, 300, net.IPv4(127, 0, 0, 1), aaaa); err != nil {
			ls.Close()
			return nil, err
		}
		ls.refs = append(ls.refs, measure.SiteRef{ID: id, FirstRank: rank})
	}
	if len(ls.refs) == 0 {
		ls.Close()
		return nil, fmt.Errorf("core: no routable sites for live study")
	}

	fetch := measure.NewLiveFetcher(ls.dns.Addr().String(), ls.web4.Addr().Port, ls.web6.Addr().Port, s.Cfg.Seed)
	fetch.V6Fallback = ls.fallback
	// The campaign-wide client override applies to live studies too;
	// without one, the defaults are retuned for real sockets (fewer
	// workers and downloads — loopback rounds are slow, not noisy).
	mcfg := s.Cfg.monitorConfig(vantage, s.Cfg.Seed)
	if s.Cfg.Measure == nil {
		mcfg.Workers = 8
		mcfg.MaxDownloads = 6
	}
	ls.mon, err = measure.NewMonitor(mcfg, fetch, ls.DB)
	if err != nil {
		ls.Close()
		return nil, err
	}
	return ls, nil
}

// Sites returns the monitored site refs.
func (ls *LiveStudy) Sites() []measure.SiteRef { return ls.refs }

// PredictedV4 returns the model's predicted IPv4 speed for a site
// (kB/s, unscaled).
func (ls *LiveStudy) PredictedV4(id alexa.SiteID) float64 { return ls.predV4[id] }

// PredictedV6 returns the model's predicted IPv6 speed for a site.
func (ls *LiveStudy) PredictedV6(id alexa.SiteID) float64 { return ls.predV6[id] }

// V6Fallback reports whether the IPv6 plane runs on an IPv4 socket.
func (ls *LiveStudy) V6Fallback() bool { return ls.fallback }

// RunRound executes one real-socket monitoring round. The live
// fetcher knows no origin ASes, so the round has no destinations.
func (ls *LiveStudy) RunRound(round int) measure.RoundStats {
	st, _ := ls.mon.RunRound(round, time.Now(), 1.0, ls.refs) //v6lint:wallclock live study rounds are stamped with the real date
	return st
}

// Close tears the servers down.
func (ls *LiveStudy) Close() {
	if ls.dns != nil {
		ls.dns.Close()
	}
	if ls.web4 != nil {
		ls.web4.Close()
	}
	if ls.web6 != nil {
		ls.web6.Close()
	}
}
