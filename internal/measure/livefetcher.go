package measure

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"v6web/internal/dnssim"
	"v6web/internal/httpsim"
	"v6web/internal/topo"
)

// LiveFetcher satisfies Fetcher over real sockets: DNS queries go to a
// dnssim server over UDP, page downloads run over TCP against shaped
// httpsim servers — one listening on the IPv4 loopback, one on the
// IPv6 loopback. This is the deployment-shaped path of the library:
// the same monitoring engine, driven through genuine wire protocols.
type LiveFetcher struct {
	Resolver *dnssim.Resolver
	Client   *httpsim.Client
	V4Port   int // port of the IPv4 loopback web server
	V6Port   int // port of the IPv6 loopback web server

	// V6Fallback supports hosts without an IPv6 loopback: when set,
	// "IPv6" downloads run over TCP4 against V6FallbackIP:V6Port (a
	// second, separately shaped server standing in for the IPv6
	// plane) while AAAA records still drive dual-stack detection.
	V6Fallback   bool
	V6FallbackIP net.IP
}

// NewLiveFetcher wires a fetcher against a DNS server address and the
// two web-server ports.
func NewLiveFetcher(dnsAddr string, v4Port, v6Port int, seed int64) *LiveFetcher {
	return &LiveFetcher{
		Resolver: dnssim.NewResolver(dnsAddr, nil, seed),
		Client:   httpsim.NewClient(),
		V4Port:   v4Port,
		V6Port:   v6Port,
	}
}

// Resolve implements Fetcher via real A/AAAA queries. There is no
// BGP data to attribute the records with, so both origins are
// unknown (-1).
func (f *LiveFetcher) Resolve(ref SiteRef, _ time.Time) (hasA, hasAAAA bool, v4AS, v6AS int, err error) {
	host := HostName(ref.ID)
	a, err := f.Resolver.LookupA(host)
	if err != nil {
		if errors.Is(err, dnssim.ErrNXDomain) {
			return false, false, -1, -1, nil
		}
		return false, false, -1, -1, err
	}
	aaaa, err := f.Resolver.LookupAAAA(host)
	if err != nil && !errors.Is(err, dnssim.ErrNXDomain) {
		return false, false, -1, -1, err
	}
	return len(a) > 0, len(aaaa) > 0, -1, -1, nil
}

// Fetch implements Fetcher via a real HTTP GET over the requested
// family.
func (f *LiveFetcher) Fetch(ref SiteRef, fam topo.Family, _ int, _ float64, _ *rand.Rand) (FetchResult, error) {
	host := HostName(ref.ID)
	var (
		cf   httpsim.Family
		port int
	)
	if fam == topo.V6 {
		ips, err := f.Resolver.LookupAAAA(host)
		if err != nil {
			return FetchResult{}, err
		}
		if len(ips) == 0 {
			return FetchResult{}, fmt.Errorf("measure: no AAAA for %s", host)
		}
		cf, port = httpsim.V6, f.V6Port
		addr := ips[0]
		if f.V6Fallback {
			cf = httpsim.V4
			addr = f.V6FallbackIP
			if addr == nil {
				addr = net.IPv4(127, 0, 0, 1)
			}
		}
		resp, err := f.Client.Get(cf, addr, port, host, "/")
		if err != nil {
			return FetchResult{}, err
		}
		return FetchResult{PageBytes: len(resp.Body), Elapsed: resp.Elapsed}, nil
	}
	ips, err := f.Resolver.LookupA(host)
	if err != nil {
		return FetchResult{}, err
	}
	if len(ips) == 0 {
		return FetchResult{}, fmt.Errorf("measure: no A for %s", host)
	}
	cf, port = httpsim.V4, f.V4Port
	resp, err := f.Client.Get(cf, ips[0], port, host, "/")
	if err != nil {
		return FetchResult{}, err
	}
	return FetchResult{PageBytes: len(resp.Body), Elapsed: resp.Elapsed}, nil
}
