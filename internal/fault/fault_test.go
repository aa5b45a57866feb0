package fault

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestDisabledInjectorIsInert(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Fatal("nil config reports enabled")
	}
	if (&Config{Seed: 9}).Enabled() {
		t.Fatal("zero plan with seed reports enabled")
	}
	in := New(Config{}, "fp")
	if hook := in.FSHook(1, 2); hook != nil {
		t.Fatal("disabled injector returned a non-nil fs hook")
	}
	if f := in.WireFor(0, 0, time.Second); f.Kind != WireNone {
		t.Fatalf("disabled injector drew wire fault %v", f.Kind)
	}
	if in.DupRound(0, 0, 3) {
		t.Fatal("disabled injector duplicated a round")
	}
}

func TestFSHookDeterministicAndOpScoped(t *testing.T) {
	cfg := Config{Seed: 7, FS: FSPlan{WriteFail: 0.5, SyncFail: 0.5, RenameFail: 0.5, CrashAfterCommit: 0.5, PruneFail: 0.5}}
	ops := []string{"write", "sync", "rename", "crash", "prune", "write", "sync", "rename"}

	run := func(scope ...uint64) []bool {
		hook := New(cfg, "fp").FSHook(scope...)
		out := make([]bool, len(ops))
		for i, op := range ops {
			err := hook(op, "p")
			out[i] = err != nil
			if err != nil {
				var ie *InjectedError
				if !errors.As(err, &ie) || ie.Op != op {
					t.Fatalf("op %s: wrong error %v", op, err)
				}
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("op %s: error does not match ErrInjected", op)
				}
			}
		}
		return out
	}

	a, b := run(3, 0), run(3, 0)
	fired := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same scope diverged at op %d: %v vs %v", i, a, b)
		}
		fired = fired || a[i]
	}
	if !fired {
		t.Fatalf("p=0.5 schedule fired nothing across %d ops", len(ops))
	}
	// A different attempt scope must not replay the same schedule.
	c := run(3, 1)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("attempt 0 and attempt 1 drew identical fault schedules")
	}
}

func TestWireForDeterministicAndBounded(t *testing.T) {
	cfg := Config{Seed: 11, Wire: WirePlan{Cut: 0.3, Corrupt: 0.3, Hang: 0.2, Delay: 0.2}}
	in := New(cfg, "fp")
	timeout := 10 * time.Second
	counts := map[WireKind]int{}
	for shard := 0; shard < 16; shard++ {
		for attempt := 0; attempt < 3; attempt++ {
			f1 := in.WireFor(shard, attempt, timeout)
			f2 := in.WireFor(shard, attempt, timeout)
			if f1 != f2 {
				t.Fatalf("shard %d attempt %d: %+v vs %+v", shard, attempt, f1, f2)
			}
			counts[f1.Kind]++
			if f1.Kind == WireNone {
				continue
			}
			if f1.Offset < 0 || f1.Offset >= wireOffsetRange {
				t.Fatalf("offset %d out of range", f1.Offset)
			}
			if f1.Kind == WireDelay {
				if f1.Delay <= 0 || f1.Delay >= timeout/2 {
					t.Fatalf("delay %v outside (0, timeout/2)", f1.Delay)
				}
			} else if f1.Delay != 0 {
				t.Fatalf("%v fault carries a delay", f1.Kind)
			}
		}
	}
	// With probabilities summing to 1.0, every draw yields a fault and
	// over 48 draws each kind should appear.
	if counts[WireNone] != 0 {
		t.Fatalf("probability-1.0 plan drew %d non-faults", counts[WireNone])
	}
	for _, k := range []WireKind{WireCut, WireCorrupt, WireHang, WireDelay} {
		if counts[k] == 0 {
			t.Fatalf("kind %v never drawn in 48 tries", k)
		}
	}
	// Distinct fingerprints shift the schedule.
	other := New(cfg, "fp2")
	same := true
	for shard := 0; shard < 16; shard++ {
		if in.WireFor(shard, 0, timeout) != other.WireFor(shard, 0, timeout) {
			same = false
		}
	}
	if same {
		t.Fatal("fingerprint does not key the wire schedule")
	}
}

func TestDupRoundDeterministic(t *testing.T) {
	in := New(Config{Seed: 3, Wire: WirePlan{DupRound: 0.5}}, "fp")
	fired := false
	for round := 0; round < 20; round++ {
		a := in.DupRound(1, 0, round)
		if a != in.DupRound(1, 0, round) {
			t.Fatal("dup draw not deterministic")
		}
		fired = fired || a
	}
	if !fired {
		t.Fatal("p=0.5 dup plan never fired in 20 rounds")
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond,
		MaxDelay: 400 * time.Millisecond, Timeout: time.Second}
	if d := p.backoff(0); d != 0 {
		t.Fatalf("attempt 0 backoff = %v, want 0", d)
	}
	want := []time.Duration{100, 200, 400, 400} // ms; capped at MaxDelay
	for i, w := range want {
		if d := p.backoff(i + 1); d != w*time.Millisecond {
			t.Fatalf("attempt %d backoff = %v, want %v", i+1, d, w*time.Millisecond)
		}
	}
}

func TestRetryPolicyWaitHonorsContext(t *testing.T) {
	p := RetryPolicy{BaseDelay: time.Hour, MaxDelay: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.wait(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait under canceled ctx = %v, want context.Canceled", err)
	}
	if err := p.wait(context.Background(), 0); err != nil {
		t.Fatalf("zero backoff wait = %v", err)
	}
}

func TestParseFlag(t *testing.T) {
	if c, err := ParseFlag(""); c != nil || err != nil {
		t.Fatalf("empty flag = %v, %v", c, err)
	}
	c, err := ParseFlag("seed=9, fs=0.25, wire.hang=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 9 || c.FS.WriteFail != 0.25 || c.FS.CrashAfterCommit != 0.25 ||
		c.Wire.Hang != 0.1 || c.Wire.Cut != 0 {
		t.Fatalf("parsed %+v", c)
	}
	c, err = ParseFlag("wire=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if c.Wire.Cut != 0.5 || c.Wire.Corrupt != 0.5 || c.Wire.DupRound != 0.5 ||
		c.Wire.Hang != 0 || c.Wire.Delay != 0 {
		t.Fatalf("wire aggregate parsed %+v", c.Wire)
	}
	for _, bad := range []string{"fs", "fs=2", "fs=-0.1", "fs=x", "nope=0.1", "seed=x", "wire.cut=1.5"} {
		if _, err := ParseFlag(bad); err == nil {
			t.Fatalf("ParseFlag(%q) accepted", bad)
		}
	}
}
