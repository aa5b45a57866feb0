// Command v6mond runs measurement campaigns as a supervised daemon:
// scenario-pack campaigns execute under checkpointing with
// auto-resume, and every completed round is published as a versioned
// snapshot served over HTTP while the next round computes.
//
// Campaigns are registered with the repeatable -campaign flag
// (name=pack, optionally followed by ;key=value spec overrides) and
// persisted as manifests under <data>/campaigns/<name>/. A restarted
// daemon — including one killed with SIGKILL mid-round or
// mid-checkpoint-commit — rediscovers every campaign from disk and
// resumes it from the last committed checkpoint with no operator
// action; the exhibits it serves after resuming are byte-identical to
// an uninterrupted run's.
//
// Usage:
//
//	v6mond -data d/ -campaign 'paper=paper-scale-mini'
//	v6mond -data d/ -campaign 'small=paper-scale-mini;topo.ases=200' \
//	       -campaign 'outages=vantage-outages' -round-every 10s
//	v6mond -data d/                       # resume discovered campaigns only
//
// The HTTP API (default :9646):
//
//	/healthz                              liveness
//	/readyz                               200 once every campaign serves a
//	                                      version backed by a committed checkpoint
//	/api/campaigns                        status of every campaign
//	/api/campaigns/<name>                 one campaign's status
//	/api/campaigns/<name>/report          full measurement report (tables 2–13),
//	                                      byte-identical to `v6report -db`
//	/api/campaigns/<name>/exhibits        exhibit index (servable + pre-rendered)
//	/api/campaigns/<name>/exhibits/<x>    one exhibit (fig1, fig3a, fig3b,
//	                                      table1..table13)
//	/api/campaigns/<name>/events          round events as SSE
//
// The pack's "exhibits" selection (plus the full report) is
// pre-rendered at every round boundary and served without touching the
// render limiter; other exhibits render cold under -render-concurrency
// and are shed with 429 when the limiter is full.
//
// On SIGINT/SIGTERM the daemon drains: in-flight requests finish, live
// campaigns checkpoint, and the process exits 0 — restarting resumes
// where it left off.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"v6web/internal/cli"
	"v6web/internal/daemon"
	"v6web/internal/scenario"
)

// campaignFlag is the repeatable -campaign value: "name=pack" with
// optional ";key=value" spec overrides appended.
type campaignFlag struct {
	name string
	pack string
	sets scenario.Overrides
}

type campaignFlags []campaignFlag

func (c *campaignFlags) String() string {
	var parts []string
	for _, f := range *c {
		parts = append(parts, f.name+"="+f.pack)
	}
	return strings.Join(parts, ",")
}

func (c *campaignFlags) Set(v string) error {
	name, rest, ok := strings.Cut(v, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf("want name=pack[;key=value;...], got %q", v)
	}
	fields := strings.Split(rest, ";")
	f := campaignFlag{name: name, pack: fields[0]}
	for _, set := range fields[1:] {
		if err := f.sets.Set(set); err != nil {
			return err
		}
	}
	*c = append(*c, f)
	return nil
}

func main() {
	var (
		data    = flag.String("data", "v6mond-data", "daemon data directory (campaign manifests, checkpoints, finished databases)")
		addr    = flag.String("addr", ":9646", "HTTP listen address")
		every   = flag.Int("checkpoint-every", 1, "checkpoint cadence in rounds (minimum 1: a supervised campaign is always resumable)")
		pace    = flag.Duration("round-every", 0, "pause between campaign rounds (the paper's weekly cadence, scaled; 0 runs rounds back-to-back)")
		watch   = flag.Duration("watchdog", 0, "stuck-round deadline base: a round with no progress for this long (plus restart backoff) is abandoned and resumed from the last checkpoint (0 uses the default retry policy's timeout)")
		renders = flag.Int("render-concurrency", 4, "max concurrent cold exhibit renders; beyond it requests are shed with 429")
		quiet   = flag.Bool("q", false, "suppress progress output")
	)
	var campaigns campaignFlags
	flag.Var(&campaigns, "campaign", "campaign as name=pack[;key=value;...] (repeatable); pack is a built-in scenario name or a pack file, overrides are dotted spec paths")
	flag.Parse()

	opt := daemon.Options{
		Dir:               *data,
		Addr:              *addr,
		CheckpointEvery:   *every,
		RoundEvery:        *pace,
		RenderConcurrency: *renders,
	}
	if *watch > 0 {
		opt.Retry.Timeout = *watch
	}
	if !*quiet {
		opt.Log = os.Stdout
	}
	d := daemon.New(opt)

	// Disk first (a restart must pick up every existing campaign even
	// when started with no flags), then the command line, which is
	// idempotent for campaigns already on disk.
	if err := d.Discover(); err != nil {
		fatal(err)
	}
	for _, f := range campaigns {
		if _, err := d.Add(f.name, f.pack, f.sets); err != nil {
			fatal(err)
		}
	}
	if len(d.Campaigns()) == 0 {
		fatal(fmt.Errorf("no campaigns: give at least one -campaign name=pack, or point -data at a directory with existing campaigns"))
	}

	ctx, stop := cli.SignalContext()
	defer stop()
	start := time.Now()
	if err := d.Run(ctx); err != nil {
		fatal(err)
	}
	cli.Drained("v6mond", fmt.Sprintf("drained after %v; campaigns checkpointed — restart to resume",
		time.Since(start).Round(time.Second)), true)
}

func fatal(err error) { cli.Fatal("v6mond", err) }
