// Package topo models an AS-level Internet topology: autonomous
// systems with business tiers, customer/provider and peering
// relationships, a sparser IPv6 sub-topology (per-edge IPv6
// enablement, the paper's "peering parity" dimension), an IPv6 tunnel
// overlay that makes IPv6 AS paths appear shorter than they are, and a
// handful of CDN ASes that host many sites over IPv4 only.
//
// The paper's analysis consumes AS paths and the classification of
// sites by origin AS; this package supplies the synthetic Internet
// those paths are computed on (see internal/bgp).
package topo

import "fmt"

// ASN is an autonomous system number.
type ASN int

// Tier classifies an AS's position in the provider hierarchy.
type Tier int

const (
	// Tier1 ASes form the default-free core: a full peering mesh,
	// no providers.
	Tier1 Tier = iota
	// Tier2 ASes buy transit from Tier1s and peer among themselves.
	Tier2
	// Stub ASes are edge networks buying transit from Tier2s.
	Stub
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Tier2:
		return "tier2"
	case Stub:
		return "stub"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Rel is the business relationship of a neighbor from the local AS's
// point of view.
type Rel int

const (
	// RelCustomer means the neighbor is my customer (I provide transit).
	RelCustomer Rel = iota
	// RelPeer means settlement-free peering.
	RelPeer
	// RelProvider means the neighbor is my transit provider.
	RelProvider
)

// String implements fmt.Stringer.
func (r Rel) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	default:
		return fmt.Sprintf("rel(%d)", int(r))
	}
}

// Invert returns the relationship from the other side of the edge.
func (r Rel) Invert() Rel {
	switch r {
	case RelCustomer:
		return RelProvider
	case RelProvider:
		return RelCustomer
	default:
		return RelPeer
	}
}

// Family selects the IPv4 or IPv6 topology.
type Family int

const (
	// V4 selects the IPv4 topology (all edges).
	V4 Family = iota
	// V6 selects the IPv6 sub-topology (v6-enabled edges + tunnels).
	V6
)

// String implements fmt.Stringer.
func (f Family) String() string {
	if f == V6 {
		return "IPv6"
	}
	return "IPv4"
}

// AS describes one autonomous system.
type AS struct {
	ASN          ASN
	Tier         Tier
	V6           bool // announces IPv6 prefixes (v6-capable)
	CDN          bool // content distribution network hosting many sites
	TunnelBroker bool // terminates IPv6-in-IPv4 tunnels
}

// Neighbor is one adjacency of an AS.
type Neighbor struct {
	Idx        int  // dense index of the neighboring AS
	Rel        Rel  // relationship from the local AS's perspective
	V6         bool // edge carries native IPv6
	Tunnel     bool // edge is an IPv6-in-IPv4 tunnel (v6 only)
	HiddenHops int  // extra underlying hops a tunnel hides (≥1 if Tunnel)
}

// Graph is an immutable AS-level topology. ASes are addressed by dense
// index 0..N-1; ASN values are stable and derived from the index.
type Graph struct {
	ases  []AS
	adj   [][]Neighbor
	byASN map[ASN]int

	// Per-family adjacency, precomputed once by finalize so the
	// routing and data-plane hot paths never re-filter (or allocate)
	// adjacency lists per call.
	famAdj [2][][]Neighbor
}

// N returns the number of ASes.
func (g *Graph) N() int { return len(g.ases) }

// AS returns the AS at dense index i.
func (g *Graph) AS(i int) AS { return g.ases[i] }

// IndexOf returns the dense index for an ASN, or -1.
func (g *Graph) IndexOf(a ASN) int {
	if i, ok := g.byASN[a]; ok {
		return i
	}
	return -1
}

// Neighbors returns the adjacency list of AS i usable by family fam:
// for V4 all native edges; for V6 only v6-enabled edges and tunnels.
// The returned slice must not be modified. Panics on a graph that
// was not built by Generate (which finalizes the per-family views);
// lazily finalizing here would race with concurrent readers.
func (g *Graph) Neighbors(i int, fam Family) []Neighbor {
	return g.famAdj[fam][i]
}

// finalize precomputes the per-family adjacency views. Generate calls
// it once construction is complete; edges must not change afterwards.
func (g *Graph) finalize() {
	for _, fam := range []Family{V4, V6} {
		out := make([][]Neighbor, len(g.adj))
		for i, all := range g.adj {
			kept := 0
			for _, n := range all {
				if famEdge(n, fam) {
					kept++
				}
			}
			if kept == 0 {
				continue
			}
			fa := make([]Neighbor, 0, kept)
			for _, n := range all {
				if famEdge(n, fam) {
					fa = append(fa, n)
				}
			}
			out[i] = fa
		}
		g.famAdj[fam] = out
	}
}

// famEdge reports whether an edge participates in fam's topology: all
// native (non-tunnel) edges for V4; v6-enabled edges and tunnels for
// V6.
func famEdge(n Neighbor, fam Family) bool {
	if fam == V4 {
		return !n.Tunnel
	}
	return n.V6 || n.Tunnel
}

// RawNeighbors returns every adjacency of AS i regardless of family.
// The returned slice must not be modified.
func (g *Graph) RawNeighbors(i int) []Neighbor { return g.adj[i] }

// EdgeCount returns the number of undirected edges usable by fam.
func (g *Graph) EdgeCount(fam Family) int {
	total := 0
	for i := range g.adj {
		total += len(g.Neighbors(i, fam))
	}
	return total / 2
}

// CountV6 returns how many ASes are v6-capable.
func (g *Graph) CountV6() int {
	n := 0
	for _, a := range g.ases {
		if a.V6 {
			n++
		}
	}
	return n
}

// CDNs returns the dense indices of all CDN ASes.
func (g *Graph) CDNs() []int {
	var out []int
	for i, a := range g.ases {
		if a.CDN {
			out = append(out, i)
		}
	}
	return out
}
