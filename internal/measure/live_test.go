package measure

import (
	"net"
	"testing"
	"time"

	"v6web/internal/alexa"
	"v6web/internal/dnssim"
	"v6web/internal/httpsim"
	"v6web/internal/store"
	"v6web/internal/topo"
)

// TestLiveMonitoringEndToEnd runs the full Fig 2 pipeline over real
// sockets: a dnssim UDP server, two shaped httpsim servers (IPv4 and
// IPv6 loopback), and the monitoring engine with a LiveFetcher.
func TestLiveMonitoringEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets in -short mode")
	}
	zone := dnssim.NewZone()
	dns, err := dnssim.NewServer(zone, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dns.Close()

	web4, err := httpsim.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer web4.Close()
	web6, err := httpsim.NewServer("[::1]:0")
	if err != nil {
		t.Skipf("IPv6 loopback unavailable: %v", err)
	}
	defer web6.Close()

	// Three sites: a fast dual-stack site, a dual-stack site whose
	// IPv6 is much slower (broken v6 path), and a v4-only site.
	type siteSpec struct {
		id     alexa.SiteID
		page   int
		v4Rate float64
		v6Rate float64 // 0 = no AAAA
	}
	specs := []siteSpec{
		{id: 1, page: 40 << 10, v4Rate: 800, v6Rate: 780},
		{id: 2, page: 40 << 10, v4Rate: 800, v6Rate: 150},
		{id: 3, page: 20 << 10, v4Rate: 900},
	}
	for _, s := range specs {
		host := HostName(s.id)
		var v6 net.IP
		if s.v6Rate > 0 {
			v6 = net.ParseIP("::1")
			web6.SetSite(host, httpsim.SiteConfig{PageSize: s.page, RateKBps: s.v6Rate})
		}
		if err := zone.SetSite(host, 300, net.IPv4(127, 0, 0, 1), v6); err != nil {
			t.Fatal(err)
		}
		web4.SetSite(host, httpsim.SiteConfig{PageSize: s.page, RateKBps: s.v4Rate})
	}

	fetch := NewLiveFetcher(dns.Addr().String(), web4.Addr().Port, web6.Addr().Port, 1)
	db := store.NewDB()
	cfg := DefaultConfig("live", 1)
	cfg.Workers = 3
	cfg.MaxDownloads = 6 // keep wall time low
	mon, err := NewMonitor(cfg, fetch, db)
	if err != nil {
		t.Fatal(err)
	}
	refs := []SiteRef{{ID: 1, FirstRank: 1}, {ID: 2, FirstRank: 2}, {ID: 3, FirstRank: 3}}
	st := mon.RunRound(0, time.Now(), 0.5, refs)
	if st.Sites != 3 {
		t.Fatalf("sites %d", st.Sites)
	}
	if st.Dual != 2 {
		t.Fatalf("dual %d, want 2", st.Dual)
	}

	// Site 1: v4 and v6 speeds should be in the same ballpark.
	snap := db.Freeze()
	s4 := snap.Series(nil, "live", 1, topo.V4)
	s6 := snap.Series(nil, "live", 1, topo.V6)
	if len(s4) != 1 || len(s6) != 1 {
		t.Fatalf("site1 samples: %d/%d", len(s4), len(s6))
	}
	if s4[0].MeanSpeed <= 0 || s6[0].MeanSpeed <= 0 {
		t.Fatalf("speeds: %v %v", s4[0].MeanSpeed, s6[0].MeanSpeed)
	}
	// Site 2: v6 distinctly slower than v4.
	b4 := snap.Series(nil, "live", 2, topo.V4)
	b6 := snap.Series(nil, "live", 2, topo.V6)
	if len(b4) != 1 || len(b6) != 1 {
		t.Fatalf("site2 samples: %d/%d", len(b4), len(b6))
	}
	if b6[0].MeanSpeed >= b4[0].MeanSpeed*0.7 {
		t.Fatalf("shaped v6 not slower: v6=%v v4=%v", b6[0].MeanSpeed, b4[0].MeanSpeed)
	}
	// Site 3: v4-only, no v6 samples.
	if len(snap.Series(nil, "live", 3, topo.V6)) != 0 {
		t.Fatal("v4-only site has v6 samples")
	}
	// DNS rows recorded for all.
	if len(db.DNS("live")) != 3 {
		t.Fatalf("dns rows: %d", len(db.DNS("live")))
	}
}
