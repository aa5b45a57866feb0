package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"v6web/internal/core"
	"v6web/internal/fault"
	"v6web/internal/store"
)

// TestMain diverts re-exec'd worker processes (the kill/retry test
// spawns the test binary itself) into the worker loop.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// testCfg mirrors core's runnerCfg: a campaign small enough that the
// byte-identity property test can afford reference plus sharded runs
// across seeds and shard counts.
func testCfg(seed int64) core.Config {
	cfg := core.DefaultConfig(seed)
	cfg.NASes = 250
	cfg.ListSize = 1200
	cfg.Extended = 200
	cfg.Rounds = 7
	cfg.V6DayRounds = 4
	cfg.Vantages = core.ScaledVantages(cfg.Rounds)
	return cfg
}

var campaignFiles = []string{
	"main/sites.csv", "main/dns.csv", "main/samples.csv", "main/paths.csv",
	"v6day/sites.csv", "v6day/dns.csv", "v6day/samples.csv", "v6day/paths.csv",
}

func saveCampaign(t *testing.T, s *core.Scenario, name string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), name)
	if err := s.DB.Save(filepath.Join(dir, store.SnapMain)); err != nil {
		t.Fatal(err)
	}
	if err := s.V6DayDB.Save(filepath.Join(dir, store.SnapV6Day)); err != nil {
		t.Fatal(err)
	}
	return dir
}

func assertCampaignsIdentical(t *testing.T, refDir, gotDir, label string) {
	t.Helper()
	for _, name := range campaignFiles {
		want, err := os.ReadFile(filepath.Join(refDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(gotDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s: %s differs from single-process run (%d vs %d bytes)",
				label, name, len(got), len(want))
		}
	}
}

// referenceRun is the single-process campaign the sharded runs must
// reproduce byte-for-byte.
func referenceRun(t *testing.T, cfg core.Config) string {
	t.Helper()
	s, err := core.NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.RunWorldV6DayContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	return saveCampaign(t, s, "ref")
}

// --- in-process transport --------------------------------------------

// pipeConn runs a real worker (full Serve loop, real frames) in a
// goroutine of this process: the whole data path minus process
// isolation, so property tests stay fast and debuggable.
type pipeConn struct {
	r    *io.PipeReader
	done chan error
}

func (p *pipeConn) Read(b []byte) (int, error) { return p.r.Read(b) }
func (p *pipeConn) kill()                      { p.r.CloseWithError(fmt.Errorf("killed by coordinator")) }

// interrupt approximates SIGTERM for the in-process worker: there is
// no signal channel into Serve, so the read side closes and the worker
// dies at its next emit — its periodic checkpoints stand, as they
// would for a remote netConn worker.
func (p *pipeConn) interrupt() { p.kill() }

func (p *pipeConn) wait() error { return <-p.done }

func inprocSpawner(ctx context.Context, spec Spec) (workerConn, error) {
	specR, specW := io.Pipe()
	frameR, frameW := io.Pipe()
	go func() {
		writeSpec(specW, spec)
		specW.Close()
	}()
	done := make(chan error, 1)
	go func() {
		err := Serve(specR, frameW)
		frameW.Close()
		done <- err
	}()
	return &pipeConn{r: frameR, done: done}, nil
}

// --- tests -----------------------------------------------------------

func TestSplitCoversExactly(t *testing.T) {
	cfg := testCfg(1)
	mainTotal, err := core.FinalMainSites(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4, 7, 16} {
		specs, err := Split(cfg, n)
		if err != nil {
			t.Fatalf("Split(%d): %v", n, err)
		}
		if len(specs) != n {
			t.Fatalf("Split(%d): got %d specs", n, len(specs))
		}
		if specs[0].MainLo != 0 || specs[n-1].MainHi != int64(mainTotal) {
			t.Errorf("n=%d: main ranges span [%d,%d), want [0,%d)",
				n, specs[0].MainLo, specs[n-1].MainHi, mainTotal)
		}
		if specs[0].ExtLo != int64(core.ExtendedBase) ||
			specs[n-1].ExtHi != int64(core.ExtendedBase)+int64(cfg.Extended) {
			t.Errorf("n=%d: ext ranges span [%d,%d)", n, specs[0].ExtLo, specs[n-1].ExtHi)
		}
		for i := 1; i < n; i++ {
			if specs[i].MainLo != specs[i-1].MainHi || specs[i].ExtLo != specs[i-1].ExtHi {
				t.Errorf("n=%d: shard %d does not abut shard %d", n, i, i-1)
			}
		}
		for i, sp := range specs {
			if sp.MainLo >= sp.MainHi {
				t.Errorf("n=%d: shard %d has empty main range", n, i)
			}
			if sp.Fingerprint != cfg.Fingerprint() {
				t.Errorf("n=%d: shard %d fingerprint mismatch", n, i)
			}
		}
	}
	if _, err := Split(cfg, 0); err == nil {
		t.Error("Split(0): want error")
	}
}

// randomSpecs splits the campaign at rng-chosen (not equal) cut
// points: byte-identity must hold for ANY tiling of the id space.
func randomSpecs(t *testing.T, cfg core.Config, k int, rng *rand.Rand) []Spec {
	t.Helper()
	mainTotal, err := core.FinalMainSites(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cuts := func(total, k int) []int {
		pts := map[int]bool{}
		for len(pts) < k-1 {
			pts[1+rng.Intn(total-1)] = true
		}
		out := []int{0}
		for p := range pts {
			out = append(out, p)
		}
		out = append(out, total)
		for i := range out { // insertion sort; k is tiny
			for j := i; j > 0 && out[j] < out[j-1]; j-- {
				out[j], out[j-1] = out[j-1], out[j]
			}
		}
		return out
	}
	mainCuts := cuts(mainTotal, k)
	extCuts := cuts(cfg.Extended, k)
	fp := cfg.Fingerprint()
	specs := make([]Spec, k)
	for i := range specs {
		specs[i] = Spec{
			Index: i, Fingerprint: fp,
			MainLo: int64(mainCuts[i]), MainHi: int64(mainCuts[i+1]),
			ExtLo:  int64(core.ExtendedBase) + int64(extCuts[i]),
			ExtHi:  int64(core.ExtendedBase) + int64(extCuts[i+1]),
			Config: cfg,
		}
	}
	return specs
}

// TestShardedCampaignByteIdentical is the tentpole property test:
// splitting a campaign into k random site-range shards, running each
// through a real worker, and merging on the coordinator must
// reproduce the single-process CSVs byte-identically — for every k,
// at every seed, for both the main study and World IPv6 Day.
func TestShardedCampaignByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded byte-identity property test in -short mode")
	}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := testCfg(seed)
			refDir := referenceRun(t, cfg)
			rng := rand.New(rand.NewSource(seed * 977))
			for _, k := range []int{2, 4, 7} {
				specs := randomSpecs(t, cfg, k, rng)
				s, st, err := runSpecs(context.Background(), cfg, specs, Options{
					spawn: inprocSpawner,
				})
				if err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				if st.Shards != k || st.WireBytes == 0 {
					t.Errorf("k=%d: odd stats %+v", k, st)
				}
				if err := s.RunWorldV6DayContext(context.Background()); err != nil {
					t.Fatal(err)
				}
				gotDir := saveCampaign(t, s, fmt.Sprintf("k%d", k))
				assertCampaignsIdentical(t, refDir, gotDir, fmt.Sprintf("seed=%d k=%d", seed, k))
			}
		})
	}
}

// killingConn SIGKILLs the worker process once a few frames have been
// read, simulating a crash mid-campaign.
type killingConn struct {
	workerConn
	reads int32
}

func (k *killingConn) Read(b []byte) (int, error) {
	n, err := k.workerConn.Read(b)
	if atomic.AddInt32(&k.reads, 1) == 3 {
		k.workerConn.kill()
	}
	return n, err
}

// TestWorkerKillRetried kills one real worker process (SIGKILL, as the
// CI chaos job does) after its first rounds; the coordinator must
// detect the dead stream, retry the shard — which resumes from the
// shard checkpoint — and still produce byte-identical CSVs.
func TestWorkerKillRetried(t *testing.T) {
	if testing.Short() {
		t.Skip("process-spawning retry test in -short mode")
	}
	cfg := testCfg(5)
	refDir := referenceRun(t, cfg)

	base := execSpawner()
	var sabotaged atomic.Bool
	var log bytes.Buffer
	s, st, err := Run(context.Background(), cfg, Options{
		Workers:         4,
		Dir:             t.TempDir(),
		CheckpointEvery: 2,
		Retry:           fault.RetryPolicy{Timeout: time.Minute, BaseDelay: 10 * time.Millisecond},
		Log:             &log,
		spawn: func(ctx context.Context, spec Spec) (workerConn, error) {
			conn, err := base(ctx, spec)
			if err != nil || spec.Index != 0 || !sabotaged.CompareAndSwap(false, true) {
				return conn, err
			}
			return &killingConn{workerConn: conn}, nil
		},
	})
	if err != nil {
		t.Fatalf("sharded run with killed worker: %v\n%s", err, log.String())
	}
	if st.Retries < 1 {
		t.Fatalf("want at least one retry, got %d\n%s", st.Retries, log.String())
	}
	if err := s.RunWorldV6DayContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertCampaignsIdentical(t, refDir, saveCampaign(t, s, "killed"), "after worker kill")
}

// TestProgressResetsShardBudget kills shard 0's workers after their
// third read on each of the first 4 attempts, twice the shard's budget
// of 2. Every killed attempt completes and checkpoints new rounds
// first, which renews the budget, so the shard is retried until it
// finishes, byte-identical to the single-process run.
func TestProgressResetsShardBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded retry test in -short mode")
	}
	cfg := testCfg(4)
	refDir := referenceRun(t, cfg)

	var spawned atomic.Int32
	var log bytes.Buffer
	s, st, err := Run(context.Background(), cfg, Options{
		Workers:         2,
		Dir:             t.TempDir(),
		CheckpointEvery: 1,
		Retry:           fault.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, Timeout: time.Minute},
		Log:             &log,
		spawn: func(ctx context.Context, spec Spec) (workerConn, error) {
			conn, err := inprocSpawner(ctx, spec)
			if err != nil || spec.Index != 0 || spawned.Add(1) > 4 {
				return conn, err
			}
			return &killingConn{workerConn: conn}, nil
		},
	})
	if err != nil {
		t.Fatalf("progressing shard gave up: %v\n%s", err, log.String())
	}
	if st.Retries < 4 {
		t.Fatalf("want at least 4 retries, got %d\n%s", st.Retries, log.String())
	}
	if err := s.RunWorldV6DayContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertCampaignsIdentical(t, refDir, saveCampaign(t, s, "progressing"), "after repeated kills")
}

// committedCheckpoints lists a shard directory's committed checkpoint
// directories.
func committedCheckpoints(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "checkpoints", "ck-*"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestWorkerStopCommitsOnlyNewRounds runs a 7-round shard at cadence 2
// in process and interrupts it twice: at its second round frame, so
// the stop lands right after the round-2 checkpoint, and again after
// resuming, before its first round. The cursor is committed both
// times, so neither stop may commit a new checkpoint directory. Run to
// the end, the worker commits nothing after its last round either.
func TestWorkerStopCommitsOnlyNewRounds(t *testing.T) {
	cfg := testCfg(11)
	specs, err := Split(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := specs[0]
	spec.CheckpointDir, spec.CheckpointEvery = t.TempDir(), 2

	ctx, cancel := context.WithCancel(context.Background())
	err = runSpec(ctx, spec, func(typ byte, payload []byte) error {
		if typ == frameRound {
			if round, _, _, _, err := decodeRound(payload); err == nil && round == 1 {
				cancel()
			}
		}
		return nil
	})
	if err == nil || ctx.Err() == nil {
		t.Fatalf("interrupted worker returned %v", err)
	}
	before := committedCheckpoints(t, spec.CheckpointDir)
	if len(before) != 1 {
		t.Errorf("stop right after the round-2 checkpoint: %d checkpoints %v, want the cadence one alone", len(before), before)
	}

	if err := runSpec(ctx, spec, func(byte, []byte) error { return nil }); err == nil {
		t.Fatal("pre-cancelled resumed worker ran to completion")
	}
	if got := committedCheckpoints(t, spec.CheckpointDir); len(got) != len(before) {
		t.Errorf("resumed worker stopped before its first round: checkpoints %v, want %v", got, before)
	}

	var frames int
	if err := runSpec(context.Background(), spec, func(typ byte, _ []byte) error {
		if typ == frameRound {
			frames++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	meta, ok, err := store.NewCheckpointBackend(spec.CheckpointDir).LoadMeta()
	if err != nil || !ok || meta.NextRound != 6 || frames != 5 {
		t.Fatalf("finished worker: newest checkpoint at round %d (ok=%v err=%v) after %d round frames, want round 6 after 5",
			meta.NextRound, ok, err, frames)
	}
}

// TestResplitStartsShardsFresh stops a 3-shard campaign once every
// shard has committed its round-4 checkpoint, then reruns it with 4
// shards over the same checkpoint root. The 3-way checkpoints hold
// rows for other site ranges, so no 4-way shard may resume one: the
// rerun must still equal the single-process campaign byte for byte.
func TestResplitStartsShardsFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded rerun test in -short mode")
	}
	cfg := testCfg(8)
	refDir := referenceRun(t, cfg)
	root := t.TempDir()

	// The first run's workers run in process, each to its round-4
	// checkpoint (a stop at the fourth round frame lands right after
	// it), and then fail their only attempt, which ends the run.
	var (
		mu   sync.Mutex
		dirs []string
	)
	_, _, err := Run(context.Background(), cfg, Options{
		Workers:         3,
		Dir:             root,
		CheckpointEvery: 2,
		Retry:           fault.RetryPolicy{MaxAttempts: 1},
		spawn: func(_ context.Context, spec Spec) (workerConn, error) {
			// Not the attempt's context: the first failed attempt
			// cancels its siblings', and each shard must still reach
			// its round-4 checkpoint.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			runSpec(ctx, spec, func(typ byte, payload []byte) error {
				if round, _, _, _, err := decodeRound(payload); typ == frameRound && err == nil && round == 3 {
					cancel()
				}
				return nil
			})
			mu.Lock()
			dirs = append(dirs, spec.CheckpointDir)
			mu.Unlock()
			return nil, fmt.Errorf("shard %d stopped after its round-4 checkpoint", spec.Index)
		},
	})
	if err == nil || len(dirs) != 3 {
		t.Fatalf("stopped 3-shard run: err %v, %d shard directories", err, len(dirs))
	}
	for _, dir := range dirs {
		meta, ok, err := store.NewCheckpointBackend(dir).LoadMeta()
		if err != nil || !ok || meta.NextRound != 4 {
			t.Fatalf("%s: newest checkpoint at round %d (ok=%v err=%v), want 4", dir, meta.NextRound, ok, err)
		}
	}

	s, _, err := Run(context.Background(), cfg, Options{
		Workers:         4,
		Dir:             root,
		CheckpointEvery: 2,
		spawn:           inprocSpawner,
	})
	if err != nil {
		t.Fatalf("4-shard rerun: %v", err)
	}
	if err := s.RunWorldV6DayContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertCampaignsIdentical(t, refDir, saveCampaign(t, s, "resplit"), "4-shard rerun over 3-shard checkpoints")
}

// encodeSectionFrame builds a section frame as sendSections does: its
// header, then the payload.
func encodeSectionFrame(m sectionMsg) []byte {
	return append(appendSectionHeader(nil, m.section, m.rng, m.vantage), m.payload...)
}

func TestWireCodecs(t *testing.T) {
	if idx, fp, err := decodeHello(encodeHello(3, "abc")); err != nil || idx != 3 || fp != "abc" {
		t.Errorf("hello round-trip: %d %q %v", idx, fp, err)
	}
	r, s2, d, m, err := decodeRound(encodeRound(6, 1200, 77, 41))
	if err != nil || r != 6 || s2 != 1200 || d != 77 || m != 41 {
		t.Errorf("round round-trip: %d %d %d %d %v", r, s2, d, m, err)
	}
	for _, sec := range []sectionMsg{
		{section: store.ShardDNS, rng: 1, vantage: "Penn", payload: []byte{9, 8, 7}},
		{section: store.ShardSites, rng: 0, payload: []byte{4}},
	} {
		got, err := decodeSectionFrame(encodeSectionFrame(sec))
		if err != nil || got.section != sec.section || got.rng != sec.rng || got.vantage != sec.vantage ||
			!bytes.Equal(got.payload, sec.payload) {
			t.Errorf("section round-trip: %+v %v, want %+v", got, err, sec)
		}
	}
	bad := encodeSectionFrame(sectionMsg{section: store.ShardDNS, rng: 2, vantage: "Penn", payload: []byte{1}})
	if _, err := decodeSectionFrame(bad); err == nil || !strings.Contains(err.Error(), "range 2") {
		t.Errorf("section frame naming range 2: %v, want a range error", err)
	}
	for _, short := range [][]byte{nil, {store.ShardDNS}} {
		if _, err := decodeSectionFrame(short); err == nil {
			t.Errorf("%d-byte section frame: want error", len(short))
		}
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameRound, []byte("xyz")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil || typ != frameRound || string(payload) != "xyz" {
		t.Errorf("frame round-trip: %d %q %v", typ, payload, err)
	}
}

// TestServeMarksSentError: a worker whose run fails sends the error as
// a frame, and Serve marks the error as sent, so MaybeWorker does not
// print it again on the stderr it shares with the coordinator. An error
// whose frame could not be written is not marked.
func TestServeMarksSentError(t *testing.T) {
	specs, err := Split(testCfg(3), 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := specs[0]
	spec.Fingerprint = "not-the-config"
	var in bytes.Buffer
	if err := writeSpec(&in, spec); err != nil {
		t.Fatal(err)
	}
	handshake := in.Bytes()

	var out bytes.Buffer
	err = Serve(bytes.NewReader(handshake), &out)
	if err == nil || !errors.As(err, new(sentError)) {
		t.Fatalf("Serve: %v, want an error marked sent", err)
	}
	typ, payload, ferr := readFrame(&out)
	if ferr != nil || typ != frameError || string(payload) != err.Error() {
		t.Fatalf("frame %d %q (%v), want the error frame %q", typ, payload, ferr, err)
	}

	err = Serve(bytes.NewReader(handshake), failingWriter{})
	if err == nil || errors.As(err, new(sentError)) {
		t.Fatalf("Serve into a failing writer: %v, want an error not marked sent", err)
	}
}

// failingWriter refuses every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestCoordinatorRefusesUnassignedSections: a worker's sections are
// merged only as the spec assigned them. A DNS section for a vantage
// outside the campaign's roster, built from a real one-row database so
// that it would land as a new table, and a sites section that names a
// vantage are each refused permanently, with no retry.
func TestCoordinatorRefusesUnassignedSections(t *testing.T) {
	cfg := testCfg(3)
	specs, err := Split(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	rg := specs[0].ranges()[0]
	rogue := store.NewDB()
	rogue.Reserve(int(rg[1]), core.ExtendedBase, cfg.Extended)
	var batch store.Batch
	batch.AddDNS(store.DNSRow{Site: rg[0], Round: 0, HasA: true, HasAAAA: true})
	rogue.Flush("Rogue", &batch)
	dns, n, err := rogue.AppendShardSection(nil, store.ShardDNS, "Rogue", rg[0], rg[1])
	if err != nil || n != 1 {
		t.Fatalf("rogue DNS section: %d entries, %v", n, err)
	}
	sites, _, err := rogue.AppendShardSection(nil, store.ShardSites, "", rg[0], rg[1])
	if err != nil {
		t.Fatal(err)
	}
	// The payloads themselves are sound: the store alone merges both.
	lax := store.NewDB()
	lax.Reserve(int(rg[1]), core.ExtendedBase, cfg.Extended)
	if err := lax.MergeShard(rg[0], rg[1], store.ShardDNS, "Rogue", dns); err != nil {
		t.Fatal(err)
	}
	if err := lax.MergeShard(rg[0], rg[1], store.ShardSites, "Penn", sites); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sec  sectionMsg
		want string
	}{
		{"vantage outside the roster", sectionMsg{section: store.ShardDNS, vantage: "Rogue", payload: dns}, "roster"},
		{"sites section naming a vantage", sectionMsg{section: store.ShardSites, vantage: "Penn", payload: sites}, "names vantage"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The worker sends its hello and then the one section under
			// test, as its final dump, before the done frame.
			spawn := func(_ context.Context, spec Spec) (workerConn, error) {
				var buf bytes.Buffer
				writeFrame(&buf, frameHello, encodeHello(spec.Index, spec.Fingerprint))
				writeFrame(&buf, frameSection, encodeSectionFrame(tc.sec))
				writeFrame(&buf, frameDone, nil)
				return &scriptConn{r: &buf}, nil
			}
			s, st, err := runSpecs(context.Background(), cfg, specs, Options{
				spawn: spawn,
				Retry: fault.RetryPolicy{BaseDelay: time.Millisecond},
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("campaign with a %s: %v, want an error naming %q", tc.name, err, tc.want)
			}
			if s != nil || st.Retries != 0 {
				t.Fatalf("refused section was retried %d times", st.Retries)
			}
		})
	}
}
