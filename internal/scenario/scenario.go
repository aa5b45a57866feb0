// Package scenario is the declarative layer over the study: a
// scenario pack is a small versioned JSON spec describing a what-if
// world — topology shape, adoption and peering curves, client
// behavior, campaign schedule, and report selection — that compiles
// to the core.Config the campaign runner executes. The paper's value
// is its catalog of worlds (the 2011 dual-stack baseline, World IPv6
// Day, peering remediation); packs make those worlds data instead of
// hard-coded Go, so a new what-if is a file, not a source edit.
//
// A pack sets only the fields where its world differs from the
// calibrated defaults: every spec field is optional, and Compile
// starts from the same defaults the hard-coded constructions used
// (core.DefaultConfig, topo.DefaultGenConfig, websim.DefaultConfig,
// netsim.DefaultConfig, measure.DefaultConfig), so a pack that sets
// nothing reproduces the baseline study byte for byte.
//
// Load resolves a built-in pack name (see Names) or a pack file;
// Spec.Set applies dotted-path overrides ("topo.ases=2000") on top,
// which is how v6sweep sweeps over any spec field and how the CLIs
// scale a pack down without editing it.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"v6web/internal/core"
	"v6web/internal/measure"
	"v6web/internal/netsim"
	"v6web/internal/store"
	"v6web/internal/topo"
	"v6web/internal/websim"
)

// Version is the pack format version this package reads and writes.
const Version = 1

// Spec is a scenario pack. Every field except Version is optional;
// unset fields keep the calibrated defaults, so a pack documents
// exactly what is different about its world. Pointer fields
// distinguish "unset" from an explicit zero.
type Spec struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`
	Doc     string `json:"doc,omitempty"`

	Seed *int64 `json:"seed,omitempty"`

	Topo     TopoSpec     `json:"topo,omitempty"`
	List     ListSpec     `json:"list,omitempty"`
	Schedule ScheduleSpec `json:"schedule,omitempty"`
	Routing  RoutingSpec  `json:"routing,omitempty"`
	Web      WebSpec      `json:"web,omitempty"`
	Net      NetSpec      `json:"net,omitempty"`
	Client   ClientSpec   `json:"client,omitempty"`
	Faults   FaultsSpec   `json:"faults,omitempty"`
	Report   ReportSpec   `json:"report,omitempty"`
}

// TopoSpec shapes the synthetic Internet. ASes sizes the topology;
// the remaining fields override topo.GenConfig — setting any of them
// compiles to a TopoOverride built from topo.DefaultGenConfig with
// those fields replaced.
type TopoSpec struct {
	NASes *int `json:"ases,omitempty"`

	NTier1            *int     `json:"tier1,omitempty"`
	NTier2            *int     `json:"tier2,omitempty"`
	NCDN              *int     `json:"cdns,omitempty"`
	MaxStubProviders  *int     `json:"max_stub_providers,omitempty"`
	MaxTier2Providers *int     `json:"max_tier2_providers,omitempty"`
	Tier2PeerDegree   *float64 `json:"tier2_peer_degree,omitempty"`
	V6Tier1Frac       *float64 `json:"v6_tier1_frac,omitempty"`
	V6Tier2Frac       *float64 `json:"v6_tier2_frac,omitempty"`
	V6StubFrac        *float64 `json:"v6_stub_frac,omitempty"`
	V6EdgeParity      *float64 `json:"v6_edge_parity,omitempty"`
	NTunnelBrokers    *int     `json:"tunnel_brokers,omitempty"`
	TunnelFrac        *float64 `json:"tunnel_frac,omitempty"`
	HiddenHopsMin     *int     `json:"hidden_hops_min,omitempty"`
	HiddenHopsMax     *int     `json:"hidden_hops_max,omitempty"`
}

// ListSpec sizes the ranked list and the extended population.
type ListSpec struct {
	Size     *int `json:"size,omitempty"`
	Extended *int `json:"extended,omitempty"`
}

// ScheduleSpec sets the campaign calendar. Vantage start rounds are
// always scaled from the paper's 35-week window to Rounds
// (core.ScaledVantages), as the CLIs do.
type ScheduleSpec struct {
	Rounds      *int `json:"rounds,omitempty"`
	V6DayRounds *int `json:"v6day_rounds,omitempty"`
}

// RoutingSpec sets the control-plane dynamics.
type RoutingSpec struct {
	PathChangeFrac *float64 `json:"path_change_frac,omitempty"`
}

// WebSpec overrides the site catalogue (websim.Config): adoption
// placement, CDN hosting, deficient-server mixes, content and
// non-stationarity. Setting any field compiles to a Web override
// built from websim.DefaultConfig.
type WebSpec struct {
	CDNFrac        *float64 `json:"cdn_frac,omitempty"`
	RelocateDL     *float64 `json:"relocate_dl,omitempty"`
	DiffContent    *float64 `json:"diff_content,omitempty"`
	BadMixASFrac   *float64 `json:"bad_mix_as_frac,omitempty"`
	BadFracInBad   *float64 `json:"bad_frac_in_bad,omitempty"`
	BadFracInGood  *float64 `json:"bad_frac_in_good,omitempty"`
	V6DayCleanFrac *float64 `json:"v6day_clean_frac,omitempty"`
	TransitionFrac *float64 `json:"transition_frac,omitempty"`
	TrendFrac      *float64 `json:"trend_frac,omitempty"`
	PageMedian     *float64 `json:"page_median,omitempty"`
	PageSigma      *float64 `json:"page_sigma,omitempty"`
}

// NetSpec overrides the calibrated data plane (netsim.Config).
// Durations are milliseconds.
type NetSpec struct {
	BaseRate      *float64 `json:"base_rate,omitempty"`
	HopAlpha      *float64 `json:"hop_alpha,omitempty"`
	EdgeSigma     *float64 `json:"edge_sigma,omitempty"`
	VantageSigma  *float64 `json:"vantage_sigma,omitempty"`
	TunnelPenalty *float64 `json:"tunnel_penalty,omitempty"`
	V6EdgePenalty *float64 `json:"v6_edge_penalty,omitempty"`
	NoiseRound    *float64 `json:"noise_round,omitempty"`
	NoiseFam      *float64 `json:"noise_fam,omitempty"`
	NoiseSample   *float64 `json:"noise_sample,omitempty"`
	RTTBaseMS     *float64 `json:"rtt_base_ms,omitempty"`
	RTTPerHopMS   *float64 `json:"rtt_per_hop_ms,omitempty"`
}

// ClientSpec sets client behavior: the monitoring tool's worker pool
// and retry policy (measure.Config — CI stop rule and download
// budget). The tool measures each address family in isolation, as
// the paper's did. Setting any field compiles to a core Measure
// override built from measure.DefaultConfig.
type ClientSpec struct {
	Workers      *int     `json:"workers,omitempty"`
	IdentityFrac *float64 `json:"identity_frac,omitempty"`
	CIFrac       *float64 `json:"ci_frac,omitempty"`
	CIMinN       *int     `json:"ci_min_n,omitempty"`
	MaxDownloads *int     `json:"max_downloads,omitempty"`
}

// FaultsSpec schedules campaign-level degradation as part of the
// world definition. Outage windows compile to core.Config.Outages:
// the named vantage runs no monitoring for the rounds in [from, to),
// reproducing the paper's "data collection was occasionally
// interrupted" as deterministic campaign state. Transport- and
// filesystem-level fault injection is deliberately NOT a pack concern
// — those are operational chaos knobs (the CLIs' -faults flag), not
// part of the world being simulated.
type FaultsSpec struct {
	Outages []OutageSpec `json:"outages,omitempty"`
}

// OutageSpec is one vantage-outage window. From and To are pointers so
// a window that forgets a bound fails loudly instead of compiling to
// an accidental [0,0) no-op.
type OutageSpec struct {
	Vantage string `json:"vantage"`
	From    *int   `json:"from,omitempty"`
	To      *int   `json:"to,omitempty"`
}

// validate reports structural outage errors: bounds present and
// ordered, windows per vantage disjoint. Roster membership and the
// campaign's round count are only known at Compile time, where
// core.Config.Validate re-checks the compiled schedule against them.
func (f FaultsSpec) validate() error {
	for i, o := range f.Outages {
		if o.Vantage == "" {
			return fmt.Errorf("scenario: faults.outages[%d]: vantage missing", i)
		}
		if o.From == nil || o.To == nil {
			return fmt.Errorf("scenario: faults.outages[%d] (%s): from and to are both required", i, o.Vantage)
		}
		if *o.From < 0 || *o.From >= *o.To {
			return fmt.Errorf("scenario: faults.outages[%d] (%s): window [%d,%d) empty or inverted", i, o.Vantage, *o.From, *o.To)
		}
		for j, p := range f.Outages[:i] {
			if p.Vantage == o.Vantage && *o.From < *p.To && *p.From < *o.To {
				return fmt.Errorf("scenario: faults.outages[%d] and [%d] overlap for %s", j, i, o.Vantage)
			}
		}
	}
	return nil
}

// compile materializes the outage schedule.
func (f FaultsSpec) compile() []core.VantageOutage {
	var out []core.VantageOutage
	for _, o := range f.Outages {
		out = append(out, core.VantageOutage{Vantage: store.Vantage(o.Vantage), From: *o.From, To: *o.To})
	}
	return out
}

// ReportSpec selects which exhibits a reporting run renders. Empty
// (or containing "all") means every exhibit; see Exhibits for the
// valid names.
type ReportSpec struct {
	Exhibits []string `json:"exhibits,omitempty"`
}

// Compiled is a fully resolved scenario pack.
type Compiled struct {
	Name     string
	Doc      string
	Config   core.Config
	Exhibits []string // nil means every exhibit
}

// Parse decodes a pack from JSON. Unknown fields are errors, so a
// typo in a pack file fails loudly instead of silently keeping a
// default.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// Load resolves a pack by built-in name (see Names) or, when the
// argument is not a registered name, by file path.
func Load(nameOrPath string) (*Spec, error) {
	if data, ok := builtin(nameOrPath); ok {
		sp, err := Parse(data)
		if err != nil {
			return nil, fmt.Errorf("scenario: built-in pack %q: %w", nameOrPath, err)
		}
		return sp, nil
	}
	data, err := os.ReadFile(nameOrPath)
	if err != nil {
		if os.IsNotExist(err) && !strings.ContainsAny(nameOrPath, "/\\.") {
			return nil, fmt.Errorf("scenario: no built-in pack %q (have: %s) and no such file", nameOrPath, strings.Join(Names(), ", "))
		}
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data)
}

// LoadSpec resolves a pack by built-in name or file path and applies
// the collected dotted-path overrides, in order.
func LoadSpec(nameOrPath string, sets Overrides) (*Spec, error) {
	sp, err := Load(nameOrPath)
	if err != nil {
		return nil, err
	}
	if err := sets.Apply(sp); err != nil {
		return nil, err
	}
	return sp, nil
}

// LoadCompiled is LoadSpec followed by Compile — the one-call path
// the CLIs use to turn -scenario/-set flags into a runnable config.
func LoadCompiled(nameOrPath string, sets Overrides) (Compiled, error) {
	sp, err := LoadSpec(nameOrPath, sets)
	if err != nil {
		return Compiled{}, err
	}
	return sp.Compile()
}

// Validate reports structural spec errors: version, outage windows,
// and exhibit names. Numeric ranges are checked by Compile through the
// underlying config validators.
func (sp *Spec) Validate() error {
	if sp.Version != Version {
		return fmt.Errorf("scenario: spec version %d unsupported (want %d)", sp.Version, Version)
	}
	if err := sp.Faults.validate(); err != nil {
		return err
	}
	for _, ex := range sp.Report.Exhibits {
		if !validExhibit(ex) {
			return fmt.Errorf("scenario: unknown exhibit %q (have: %s)", ex, strings.Join(Exhibits(), ", "))
		}
	}
	return nil
}

// Compile resolves the spec to a runnable configuration: the
// calibrated defaults with the pack's explicit settings applied, and
// a section override (topology, catalogue, data plane, client)
// materialized only when the pack touches that section — a pack that
// sets nothing compiles to exactly core.DefaultConfig.
func (sp *Spec) Compile() (Compiled, error) {
	if err := sp.Validate(); err != nil {
		return Compiled{}, err
	}
	seed := int64(42)
	if sp.Seed != nil {
		seed = *sp.Seed
	}
	cfg := core.DefaultConfig(seed)
	setInt(&cfg.NASes, sp.Topo.NASes)
	setInt(&cfg.ListSize, sp.List.Size)
	setInt(&cfg.Extended, sp.List.Extended)
	setInt(&cfg.Rounds, sp.Schedule.Rounds)
	setInt(&cfg.V6DayRounds, sp.Schedule.V6DayRounds)
	setFloat(&cfg.PathChangeFrac, sp.Routing.PathChangeFrac)
	cfg.Vantages = core.ScaledVantages(cfg.Rounds)
	cfg.Outages = sp.Faults.compile()

	if tc, set := sp.Topo.override(cfg.NASes, seed); set {
		if err := tc.Validate(); err != nil {
			return Compiled{}, fmt.Errorf("scenario: topo: %w", err)
		}
		cfg.TopoOverride = tc
	}
	if wc, set := sp.Web.override(seed); set {
		if err := wc.Validate(); err != nil {
			return Compiled{}, fmt.Errorf("scenario: web: %w", err)
		}
		cfg.Web = wc
	}
	if nc, set := sp.Net.override(seed); set {
		cfg.Net = nc
	}
	if mc, set := sp.Client.override(seed); set {
		cfg.Measure = mc
	}
	if err := cfg.Validate(); err != nil {
		return Compiled{}, fmt.Errorf("scenario: %w", err)
	}

	exhibits := sp.Report.Exhibits
	for _, ex := range exhibits {
		if ex == "all" {
			exhibits = nil
			break
		}
	}
	return Compiled{Name: sp.Name, Doc: sp.Doc, Config: cfg, Exhibits: exhibits}, nil
}

// Encode serializes a validated spec to indented JSON that Parse
// accepts back unchanged. This is the persistence format for daemon
// campaign manifests: a resolved spec (pack plus overrides) written
// next to the campaign's checkpoints, so a restarted daemon rebuilds
// the exact world without the original command line.
func (sp *Spec) Encode() ([]byte, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encode: %w", err)
	}
	return append(data, '\n'), nil
}

// Clone returns a deep copy of the spec (packs are cloned before
// per-point mutation in sweeps).
func (sp *Spec) Clone() *Spec {
	data, err := json.Marshal(sp)
	if err != nil {
		panic(fmt.Sprintf("scenario: clone: %v", err)) // specs are plain data; cannot fail
	}
	var out Spec
	if err := json.Unmarshal(data, &out); err != nil {
		panic(fmt.Sprintf("scenario: clone: %v", err))
	}
	return &out
}

func (t TopoSpec) override(nases int, seed int64) (*topo.GenConfig, bool) {
	tc := topo.DefaultGenConfig(nases, seed)
	set := false
	for _, f := range []struct {
		dst *int
		src *int
	}{
		{&tc.NTier1, t.NTier1}, {&tc.NTier2, t.NTier2}, {&tc.NCDN, t.NCDN},
		{&tc.MaxStubProviders, t.MaxStubProviders}, {&tc.MaxTier2Providers, t.MaxTier2Providers},
		{&tc.NTunnelBrokers, t.NTunnelBrokers},
		{&tc.HiddenHopsMin, t.HiddenHopsMin}, {&tc.HiddenHopsMax, t.HiddenHopsMax},
	} {
		if f.src != nil {
			*f.dst, set = *f.src, true
		}
	}
	for _, f := range []struct {
		dst *float64
		src *float64
	}{
		{&tc.Tier2PeerDegree, t.Tier2PeerDegree},
		{&tc.V6Tier1Frac, t.V6Tier1Frac}, {&tc.V6Tier2Frac, t.V6Tier2Frac}, {&tc.V6StubFrac, t.V6StubFrac},
		{&tc.V6EdgeParity, t.V6EdgeParity}, {&tc.TunnelFrac, t.TunnelFrac},
	} {
		if f.src != nil {
			*f.dst, set = *f.src, true
		}
	}
	if !set {
		return nil, false
	}
	return &tc, true
}

func (w WebSpec) override(seed int64) (*websim.Config, bool) {
	wc := websim.DefaultConfig(seed)
	set := false
	for _, f := range []struct {
		dst *float64
		src *float64
	}{
		{&wc.CDNFrac, w.CDNFrac}, {&wc.RelocateDL, w.RelocateDL}, {&wc.DiffContent, w.DiffContent},
		{&wc.BadMixASFrac, w.BadMixASFrac}, {&wc.BadFracInBad, w.BadFracInBad}, {&wc.BadFracInGood, w.BadFracInGood},
		{&wc.V6DayCleanFrac, w.V6DayCleanFrac}, {&wc.TransitionFrac, w.TransitionFrac}, {&wc.TrendFrac, w.TrendFrac},
		{&wc.PageMedian, w.PageMedian}, {&wc.PageSigma, w.PageSigma},
	} {
		if f.src != nil {
			*f.dst, set = *f.src, true
		}
	}
	if !set {
		return nil, false
	}
	return &wc, true
}

func (n NetSpec) override(seed int64) (*netsim.Config, bool) {
	nc := netsim.DefaultConfig(seed)
	set := false
	for _, f := range []struct {
		dst *float64
		src *float64
	}{
		{&nc.BaseRate, n.BaseRate}, {&nc.HopAlpha, n.HopAlpha}, {&nc.EdgeSigma, n.EdgeSigma},
		{&nc.VantageSigma, n.VantageSigma}, {&nc.TunnelPenalty, n.TunnelPenalty}, {&nc.V6EdgePenalty, n.V6EdgePenalty},
		{&nc.NoiseRound, n.NoiseRound}, {&nc.NoiseFam, n.NoiseFam}, {&nc.NoiseSample, n.NoiseSample},
	} {
		if f.src != nil {
			*f.dst, set = *f.src, true
		}
	}
	if n.RTTBaseMS != nil {
		nc.RTTBase = time.Duration(*n.RTTBaseMS * float64(time.Millisecond))
		set = true
	}
	if n.RTTPerHopMS != nil {
		nc.RTTPerHop = time.Duration(*n.RTTPerHopMS * float64(time.Millisecond))
		set = true
	}
	if !set {
		return nil, false
	}
	return &nc, true
}

func (c ClientSpec) override(seed int64) (*measure.Config, bool) {
	mc := measure.DefaultConfig("", seed)
	set := false
	if c.Workers != nil {
		mc.Workers, set = *c.Workers, true
	}
	if c.IdentityFrac != nil {
		mc.IdentityFrac, set = *c.IdentityFrac, true
	}
	if c.CIFrac != nil {
		mc.CI.Frac, set = *c.CIFrac, true
	}
	if c.CIMinN != nil {
		mc.CI.MinN, set = *c.CIMinN, true
	}
	if c.MaxDownloads != nil {
		mc.MaxDownloads, set = *c.MaxDownloads, true
	}
	if !set {
		return nil, false
	}
	return &mc, true
}

func setInt(dst *int, src *int) {
	if src != nil {
		*dst = *src
	}
}

func setFloat(dst *float64, src *float64) {
	if src != nil {
		*dst = *src
	}
}
