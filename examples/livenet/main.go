// Livenet: the monitoring tool over real wire protocols. This example
// stands up a DNS server (UDP, RFC 1035 wire format) and two
// bandwidth-shaped web servers — one on the IPv4 loopback, one on the
// IPv6 loopback — installs a handful of dual-stack sites with varying
// IPv6 health, and drives the same monitoring engine the simulation
// uses through genuine A/AAAA queries and per-family HTTP downloads.
// It finishes with a Happy Eyeballs (RFC 6555) demonstration.
//
//	go run ./examples/livenet
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/dnssim"
	"v6web/internal/httpsim"
	"v6web/internal/measure"
	"v6web/internal/scenario"
	"v6web/internal/store"
	"v6web/internal/topo"
)

type siteSpec struct {
	id     alexa.SiteID
	page   int
	v4Rate float64
	v6Rate float64 // 0 = IPv4-only (no AAAA)
	note   string
}

func main() {
	zone := dnssim.NewZone()
	dns, err := dnssim.NewServer(zone, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer dns.Close()

	web4, err := httpsim.NewServer("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer web4.Close()
	v6Fallback := false
	web6, err := httpsim.NewServer("[::1]:0")
	if err != nil {
		// No IPv6 loopback on this host: run the IPv6 plane on a
		// second IPv4 server. AAAA records and dual-stack detection
		// work unchanged; only the transport family differs.
		fmt.Println("note: no IPv6 loopback; emulating the IPv6 plane over a second IPv4 server")
		web6, err = httpsim.NewServer("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		v6Fallback = true
	}
	defer web6.Close()

	sites := []siteSpec{
		{1, 48 << 10, 900, 870, "healthy dual stack (SP-like)"},
		{2, 48 << 10, 900, 260, "IPv6 detours via congested peering (DP-like)"},
		{3, 32 << 10, 1200, 350, "CDN IPv4, origin-server IPv6 (DL-like)"},
		{4, 24 << 10, 800, 0, "IPv4 only"},
		{5, 48 << 10, 700, 690, "healthy dual stack"},
	}
	v6Addr := net.ParseIP("::1")
	if v6Fallback {
		v6Addr = net.ParseIP("2001:db8::1") // placeholder AAAA target
	}
	for _, sp := range sites {
		host := measure.HostName(sp.id)
		var v6 net.IP
		if sp.v6Rate > 0 {
			v6 = v6Addr
			web6.SetSite(host, httpsim.SiteConfig{PageSize: sp.page, RateKBps: sp.v6Rate})
		}
		if err := zone.SetSite(host, 300, net.IPv4(127, 0, 0, 1), v6); err != nil {
			log.Fatal(err)
		}
		web4.SetSite(host, httpsim.SiteConfig{PageSize: sp.page, RateKBps: sp.v4Rate})
	}

	fetch := measure.NewLiveFetcher(dns.Addr().String(), web4.Addr().Port, web6.Addr().Port, 1)
	fetch.V6Fallback = v6Fallback
	db := store.NewDB()
	cfg := measure.DefaultConfig("livenet", 1)
	cfg.Workers = 5
	cfg.MaxDownloads = 6
	mon, err := measure.NewMonitor(cfg, fetch, db)
	if err != nil {
		log.Fatal(err)
	}

	var refs []measure.SiteRef
	for i, sp := range sites {
		refs = append(refs, measure.SiteRef{ID: sp.id, FirstRank: i + 1})
	}
	fmt.Println("monitoring round over real sockets (DNS/UDP + shaped HTTP/TCP)...")
	// A fixed round date (the paper's World IPv6 Day) keeps the stored
	// CSVs reproducible across example runs; the sockets are still live.
	roundDate := time.Date(2011, time.June, 8, 0, 0, 0, 0, time.UTC)
	st, _ := mon.RunRound(0, roundDate, 0.5, refs)
	fmt.Printf("sites: %d   dual-stack: %d   measured: %d\n\n", st.Sites, st.Dual, st.Measured)

	fmt.Printf("%-22s %12s %12s %8s  %s\n", "site", "IPv4 kB/s", "IPv6 kB/s", "v6/v4", "diagnosis")
	snap := db.Freeze()
	for _, sp := range sites {
		host := measure.HostName(sp.id)
		s4 := snap.Series(nil, "livenet", sp.id, topo.V4)
		s6 := snap.Series(nil, "livenet", sp.id, topo.V6)
		switch {
		case len(s4) > 0 && len(s6) > 0:
			ratio := s6[0].MeanSpeed / s4[0].MeanSpeed
			fmt.Printf("%-22s %12.0f %12.0f %7.2fx  %s\n", host, s4[0].MeanSpeed, s6[0].MeanSpeed, ratio, sp.note)
		case len(s4) > 0:
			fmt.Printf("%-22s %12.0f %12s %8s  %s\n", host, s4[0].MeanSpeed, "-", "-", sp.note)
		default:
			fmt.Printf("%-22s %12s %12s %8s  %s\n", host, "-", "-", "-", sp.note)
		}
	}

	// Happy Eyeballs: what a 2011 browser could do about broken v6.
	// The connection strategy is the scenario layer's client policy:
	// the happy-eyeballs-off pack prescribes the paper's per-family
	// isolation (no dialer), and flipping the spec's client knob — the
	// "Happy-Eyeballs variant" dimension of a pack — yields the
	// RFC 6555 racing dialer used below.
	sp, err := scenario.Load("happy-eyeballs-off")
	if err != nil {
		log.Fatal(err)
	}
	comp, err := sp.Compile()
	if err != nil {
		log.Fatal(err)
	}
	if comp.Client.Dialer() != nil {
		log.Fatal("happy-eyeballs-off should prescribe per-family isolation")
	}
	fmt.Println("\npack happy-eyeballs-off: families measured in isolation (the paper's tool) — done above")
	if err := sp.SetKV("client.happy_eyeballs=racing"); err != nil {
		log.Fatal(err)
	}
	if comp, err = sp.Compile(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("client.happy_eyeballs=racing: RFC 6555 dial race against the dual-stack server:")
	he := comp.Client.Dialer()
	var v6Race net.IP
	if !v6Fallback {
		v6Race = net.ParseIP("::1")
	}
	res, err := he.Dial(v6Race, net.IPv4(127, 0, 0, 1), web6.Addr().Port)
	if err != nil {
		log.Fatal(err)
	}
	defer res.Conn.Close()
	fam := "IPv4"
	if res.Family == httpsim.V6 {
		fam = "IPv6"
	}
	fmt.Printf("  %s won in %v\n", fam, res.Elapsed.Round(time.Millisecond))
}
