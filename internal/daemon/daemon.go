// Package daemon runs measurement campaigns as a supervised,
// long-lived service: scenario-pack campaigns execute on a schedule
// under per-campaign supervision (panic isolation, stuck-round
// watchdog, checkpoint-based auto-resume), and every completed round
// is published as an immutable Version served lock-free over HTTP —
// exhibits, campaign status, and a round-event stream — while the next
// round computes. A daemon killed at any point (including SIGKILL
// mid-checkpoint-commit) rediscovers its campaigns from disk on the
// next start and resumes them with no operator action, serving
// byte-identical exhibits to an uninterrupted run.
package daemon

//v6lint:wallclock the daemon is operational machinery around the simulation, not part of it; supervision timing (watchdogs, pacing, backoff waits) is wall-clock by nature

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"v6web/internal/fault"
	"v6web/internal/scenario"
)

// Options configures a Daemon. The zero value is usable: data under
// ./v6mond-data, checkpoint every round, no pacing (rounds run
// back-to-back), default retry policy, render concurrency 4.
type Options struct {
	// Dir is the daemon's data directory; campaigns live under
	// Dir/campaigns/<name>/ (manifest, checkpoint log, product).
	Dir string

	// Addr is the HTTP listen address (":9646" by default; tests use
	// "127.0.0.1:0" and read the bound address back from Addr()).
	Addr string

	// CheckpointEvery is the checkpoint cadence in rounds (minimum 1 —
	// a supervised daemon always checkpoints, or crash-recovery would
	// have nothing to resume from).
	CheckpointEvery int

	// RoundEvery paces campaign rounds (the paper's weekly cadence,
	// scaled); 0 runs rounds back-to-back.
	RoundEvery time.Duration

	// Retry shapes both restart backoff and the stuck-round watchdog
	// deadline (Timeout + the attempt's preceding backoff + RoundEvery).
	Retry fault.RetryPolicy

	// RenderConcurrency bounds concurrent cold exhibit renders; beyond
	// it the API sheds load with 429 rather than queueing unboundedly.
	// Warm (pre-rendered) exhibits bypass the limiter entirely.
	RenderConcurrency int

	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Daemon is the supervised measurement service: a set of campaigns,
// their supervisors, and the HTTP API over their published versions.
type Daemon struct {
	opt   Options
	retry fault.RetryPolicy

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string

	renderSem chan struct{}
	sheds     atomic.Uint64
	draining  chan struct{}
	addr      atomic.Value // string, set once the listener is bound
	logMu     sync.Mutex
}

// New builds a Daemon from opt (zero fields take the defaults
// documented on Options).
func New(opt Options) *Daemon {
	if opt.Dir == "" {
		opt.Dir = "v6mond-data"
	}
	if opt.Addr == "" {
		opt.Addr = ":9646"
	}
	if opt.CheckpointEvery < 1 {
		opt.CheckpointEvery = 1
	}
	if opt.RenderConcurrency < 1 {
		opt.RenderConcurrency = 4
	}
	retry := opt.Retry.WithDefaults()
	// Nothing beats while a paced campaign sleeps between rounds, and
	// a healthy sleep must not read as a stuck round.
	retry.Timeout += opt.RoundEvery
	return &Daemon{
		opt:       opt,
		retry:     retry,
		campaigns: make(map[string]*Campaign),
		renderSem: make(chan struct{}, opt.RenderConcurrency),
		draining:  make(chan struct{}),
	}
}

func (d *Daemon) campaignsDir() string { return filepath.Join(d.opt.Dir, "campaigns") }

var nameRe = regexp.MustCompile(`^[A-Za-z0-9_-]+$`)

// Add registers a campaign by name: the scenario pack (built-in name
// or pack file) plus overrides is resolved, compiled, and persisted as
// the campaign's manifest. Re-adding an existing campaign is
// idempotent when the spec compiles to the registered fingerprint, and
// a loud error when it does not — overrides must not silently change a
// campaign that already has checkpoints on disk.
func (d *Daemon) Add(name, pack string, sets scenario.Overrides) (*Campaign, error) {
	if !nameRe.MatchString(name) {
		return nil, fmt.Errorf("daemon: campaign name %q: use letters, digits, '-' and '_' only", name)
	}
	sp, err := scenario.LoadSpec(pack, sets)
	if err != nil {
		return nil, err
	}
	comp, err := sp.Compile()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(d.campaignsDir(), name)
	if _, err := os.Stat(filepath.Join(dir, manifestFile)); err == nil {
		oldComp, err := readManifest(dir)
		if err != nil {
			return nil, err
		}
		if got, want := comp.Config.Fingerprint(), oldComp.Config.Fingerprint(); got != want {
			return nil, fmt.Errorf("daemon: campaign %s is registered with fingerprint %s; the given pack/overrides compile to %s — remove %s to start over",
				name, want, got, dir)
		}
		return d.register(dir, oldComp)
	}
	if err := writeManifest(dir, sp, comp.Config.Fingerprint()); err != nil {
		return nil, err
	}
	return d.register(dir, comp)
}

// Discover scans the data directory for campaign manifests left by
// previous runs and registers each one — this is how a restarted
// daemon picks up every campaign with no operator action. A campaign
// whose manifest cannot be read or re-validated (a torn write from a
// power failure, a hand-edited spec) is quarantined — logged loudly
// and skipped — rather than blocking the daemon and every healthy
// campaign behind it.
func (d *Daemon) Discover() error {
	entries, err := os.ReadDir(d.campaignsDir())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		dir := filepath.Join(d.campaignsDir(), ent.Name())
		if _, err := os.Stat(filepath.Join(dir, manifestFile)); err != nil {
			continue
		}
		comp, err := readManifest(dir)
		if err != nil {
			d.logf("discover: quarantining campaign %s (manifest unusable, not serving it): %v", ent.Name(), err)
			continue
		}
		if _, err := d.register(dir, comp); err != nil {
			return err
		}
	}
	return nil
}

func (d *Daemon) register(dir string, comp scenario.Compiled) (*Campaign, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	name := filepath.Base(dir)
	if c, ok := d.campaigns[name]; ok {
		return c, nil
	}
	c := newCampaign(dir, comp)
	d.campaigns[name] = c
	d.order = append(d.order, name)
	sort.Strings(d.order)
	return c, nil
}

// Campaigns returns the registered campaigns, sorted by name.
func (d *Daemon) Campaigns() []*Campaign {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Campaign, 0, len(d.order))
	for _, name := range d.order {
		out = append(out, d.campaigns[name])
	}
	return out
}

func (d *Daemon) campaign(name string) *Campaign {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.campaigns[name]
}

// Addr returns the bound listen address once Run has opened its
// listener ("" before that) — tests listen on port 0 and poll this.
func (d *Daemon) Addr() string {
	if a, ok := d.addr.Load().(string); ok {
		return a
	}
	return ""
}

// Run serves until ctx is cancelled: it starts one supervisor per
// registered campaign and the HTTP API, then on cancellation drains —
// in-flight requests finish, event streams close, live campaigns
// checkpoint — and returns nil for a clean drain.
func (d *Daemon) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", d.opt.Addr)
	if err != nil {
		return err
	}
	d.addr.Store(ln.Addr().String())
	d.logf("listening on %s (%d campaigns)", ln.Addr(), len(d.Campaigns()))

	var wg sync.WaitGroup
	for _, c := range d.Campaigns() {
		wg.Add(1)
		go func(c *Campaign) {
			defer wg.Done()
			d.supervise(ctx, c)
		}(c)
	}

	srv := &http.Server{Handler: d.handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	// Drain: event streams terminate, supervisors write their shutdown
	// checkpoints, then the server finishes in-flight requests.
	close(d.draining)
	wg.Wait()
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return err
	}
	d.logf("drained")
	return nil
}

func (d *Daemon) logf(format string, args ...any) {
	if d.opt.Log == nil {
		return
	}
	d.logMu.Lock()
	defer d.logMu.Unlock()
	fmt.Fprintf(d.opt.Log, "v6mond: "+format+"\n", args...)
}
