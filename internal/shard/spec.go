// Package shard executes one campaign as a coordinator plus worker
// processes: the site population is split into contiguous id-range
// shards, each worker runs its slice through the ordinary round
// machinery (core.Scenario restricted via Restrict), and the results
// stream back as length-prefixed binary frames of the store's columnar
// encoding, which the coordinator lands dense via DB.MergeShard. The
// merged database serializes byte-identically to a single-process
// campaign; a worker killed mid-campaign is detected by frame timeout
// and its shard retried from its own checkpoint.
package shard

import (
	"fmt"
	"path/filepath"
	"strings"

	"v6web/internal/alexa"
	"v6web/internal/core"
	"v6web/internal/fault"
)

// Spec describes one worker's slice of a campaign. It travels to the
// worker as a length-prefixed JSON blob; core.Config round-trips
// exactly through JSON (all fields are plain exported values), and
// Fingerprint double-checks that on arrival.
type Spec struct {
	Index       int    `json:"index"`
	Count       int    `json:"count"`
	Fingerprint string `json:"fingerprint"`

	// The shard's site ranges: main-list ids in [MainLo, MainHi),
	// extended-population ids in [ExtLo, ExtHi).
	MainLo int64 `json:"main_lo"`
	MainHi int64 `json:"main_hi"`
	ExtLo  int64 `json:"ext_lo"`
	ExtHi  int64 `json:"ext_hi"`

	// Vantages optionally restricts the worker to a subset of the
	// roster (empty = all). Split never sets this — the site range is
	// the shard axis — but hand-built specs for multi-machine layouts
	// may.
	Vantages []string `json:"vantages,omitempty"`

	// CheckpointDir, when set, is the worker's private checkpoint
	// directory: the shard checkpoints there every CheckpointEvery
	// rounds and auto-resumes from it after a crash or kill.
	CheckpointDir   string `json:"checkpoint_dir,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`

	// Faults, when set, is the deterministic fault plan the worker
	// injects on its side of the boundary (checkpoint filesystem
	// faults, duplicated round frames). The coordinator owns the plan
	// and omits it from a shard's final attempt, so schedules stay
	// recoverable; FaultAttempt scopes the worker's draws so a retry
	// does not replay the exact faults that killed its predecessor.
	Faults       *fault.Config `json:"faults,omitempty"`
	FaultAttempt int           `json:"fault_attempt,omitempty"`

	Config core.Config `json:"config"`
}

// checkpointDir names the spec's checkpoint directory under root after
// its index and site ranges. A shard checkpoint holds rows for its own
// ranges only, so a rerun under another split (another shard count)
// must not resume one: it finds no directory cut for other ranges and
// starts its shard fresh.
func (sp Spec) checkpointDir(root string) string {
	return filepath.Join(root, fmt.Sprintf("shard-%02d-%d-%d-%d-%d", sp.Index, sp.MainLo, sp.MainHi, sp.ExtLo, sp.ExtHi))
}

func (sp Spec) siteRange() core.SiteRange {
	return core.SiteRange{
		MainLo: alexa.SiteID(sp.MainLo), MainHi: alexa.SiteID(sp.MainHi),
		ExtLo: alexa.SiteID(sp.ExtLo), ExtHi: alexa.SiteID(sp.ExtHi),
	}
}

// vantageLabel is the claim label used for the vantage-independent
// sites section: full-roster shards share "*" (so overlapping site
// ranges collide, as they should), vantage-restricted shards get
// distinct labels so their intentional site-range re-coverage merges.
func (sp Spec) vantageLabel() string {
	if len(sp.Vantages) == 0 {
		return "*"
	}
	return strings.Join(sp.Vantages, ",")
}

// Split carves the campaign's dense id ranges into n contiguous shard
// specs that exactly cover the site population: the main range's final
// size comes from replaying the ranked list's churn (FinalMainSites),
// the extended range from the config. Every spec carries the config
// and its fingerprint.
func Split(cfg core.Config, n int) ([]Spec, error) {
	if cfg.Vantages == nil {
		cfg.Vantages = core.DefaultVantages()
	}
	mainTotal, err := core.FinalMainSites(cfg)
	if err != nil {
		return nil, err
	}
	if n < 1 || n > mainTotal {
		return nil, fmt.Errorf("shard: cannot split %d main sites into %d shards", mainTotal, n)
	}
	fp := cfg.Fingerprint()
	specs := make([]Spec, n)
	for i := range specs {
		specs[i] = Spec{
			Index: i, Count: n, Fingerprint: fp,
			MainLo: int64(i) * int64(mainTotal) / int64(n),
			MainHi: int64(i+1) * int64(mainTotal) / int64(n),
			ExtLo:  int64(core.ExtendedBase) + int64(i)*int64(cfg.Extended)/int64(n),
			ExtHi:  int64(core.ExtendedBase) + int64(i+1)*int64(cfg.Extended)/int64(n),
			Config: cfg,
		}
	}
	return specs, nil
}
