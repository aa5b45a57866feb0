// Package fault is the repo's deterministic fault-injection layer.
//
// Every fault decision is a pure function of (fault seed, campaign
// fingerprint, stable identifiers such as shard index / attempt /
// operation ordinal) drawn through internal/det — never wall clock,
// never global rand. The same seed therefore produces the same fault
// schedule on every run, which is what lets the chaos suite demand
// byte-identical output from faulty-but-recovered campaigns.
//
// The injector wraps three I/O boundaries:
//
//   - filesystem: store's checkpoint commit points (short writes,
//     ENOSPC-style failures, fsync failures, crashes after the commit
//     rename) via the FSHook closure handed to store.FaultHook sites;
//   - wire: the shard coordinator↔worker frame stream (cut, corrupted,
//     delayed streams, silent hangs, duplicated round frames) via
//     WireFor / DupRound;
//   - campaign: vantage-outage schedules, which live in core.Config
//     (see core.VantageOutage) and are merely parsed here.
//
// Recoverability contract: the injector itself is attempt-keyed but
// unconditional; callers that retry (the shard coordinator) disable
// injection on the final attempt unless Config.Unrecoverable is set,
// so every generated schedule is recoverable by construction.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"v6web/internal/det"
)

// Draw-stream salts keep the fault streams for distinct boundaries
// independent even when keyed on the same identifiers.
const (
	saltFS   uint64 = 0xf5c4
	saltWire uint64 = 0x3173
	saltDup  uint64 = 0xd0b1
)

// Config describes a fault-injection plan. The zero value injects
// nothing. A Config is JSON-serializable because it travels from the
// shard coordinator to worker processes inside the shard spec, so both
// sides draw from one schedule.
type Config struct {
	// Seed separates the fault stream from the campaign's measurement
	// stream. It is mixed with the campaign fingerprint, so the same
	// plan applied to different campaigns yields different (but each
	// individually reproducible) schedules.
	Seed int64    `json:"seed"`
	FS   FSPlan   `json:"fs"`
	Wire WirePlan `json:"wire"`
	// Unrecoverable lifts the never-fault-the-final-attempt rule, so
	// schedules may exhaust every retry. Only the negative chaos tests
	// want this.
	Unrecoverable bool `json:"unrecoverable,omitempty"`
}

// FSPlan gives per-operation fault probabilities for the store's
// checkpoint commit points. Probabilities are per hook consultation.
type FSPlan struct {
	// WriteFail aborts a staged snapshot/meta write mid-stream,
	// modeling a short write or ENOSPC.
	WriteFail float64 `json:"write_fail"`
	// SyncFail fails the pre-commit fsync.
	SyncFail float64 `json:"sync_fail"`
	// RenameFail fails the atomic commit rename itself.
	RenameFail float64 `json:"rename_fail"`
	// CrashAfterCommit reports failure *after* the commit rename has
	// landed, modeling a process that dies between durability and
	// acknowledgment. The checkpoint is valid; the caller just never
	// hears so.
	CrashAfterCommit float64 `json:"crash_after_commit"`
	// PruneFail fails checkpoint pruning, which the store treats as
	// non-fatal by contract.
	PruneFail float64 `json:"prune_fail"`
}

func (p FSPlan) enabled() bool {
	return p.WriteFail > 0 || p.SyncFail > 0 || p.RenameFail > 0 ||
		p.CrashAfterCommit > 0 || p.PruneFail > 0
}

// WirePlan gives per-attempt fault probabilities for the coordinator's
// read side of a worker stream. At most one of Cut/Corrupt/Hang/Delay
// fires per (shard, attempt); their probabilities stack cumulatively
// and are capped at 1. DupRound is drawn independently per round on
// the worker's write side.
type WirePlan struct {
	// Cut truncates the stream at a deterministic byte offset.
	Cut float64 `json:"cut"`
	// Corrupt flips one byte at a deterministic offset; the frame CRC
	// turns this into a retryable stream error at the reader.
	Corrupt float64 `json:"corrupt"`
	// Hang silences the stream at an offset without closing it; only
	// the liveness timeout can detect this.
	Hang float64 `json:"hang"`
	// Delay stalls delivery once, for a bounded fraction of the
	// liveness timeout (recoverable without a retry).
	Delay float64 `json:"delay"`
	// DupRound emits a round progress frame twice.
	DupRound float64 `json:"dup_round"`
}

func (p WirePlan) enabled() bool {
	return p.Cut > 0 || p.Corrupt > 0 || p.Hang > 0 || p.Delay > 0 || p.DupRound > 0
}

// Enabled reports whether the plan can inject anything at all. A nil
// or zero Config is the disabled injector.
func (c *Config) Enabled() bool {
	return c != nil && (c.FS.enabled() || c.Wire.enabled())
}

// InjectedError marks a failure manufactured by the injector, so tests
// and logs can tell synthetic faults from real ones.
type InjectedError struct {
	Op   string // fault point label ("write", "sync", "rename", "crash", "prune")
	Path string // target path or stream label
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("fault: injected %s failure on %s", e.Op, e.Path)
}

// ErrInjected is the sentinel all injected errors match via errors.Is.
var ErrInjected = errors.New("fault: injected")

// Is lets errors.Is(err, ErrInjected) identify synthetic failures.
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// Injector draws faults from one deterministic schedule. Construct it
// once per campaign with New; methods are safe for concurrent use.
type Injector struct {
	cfg  Config
	base uint64
}

// New builds the injector for one campaign. The fingerprint is the
// campaign's core.Config fingerprint (or any stable campaign identity
// string); it keys the schedule so distinct campaigns sharing a fault
// seed do not share fault positions.
func New(cfg Config, fingerprint string) *Injector {
	return &Injector{cfg: cfg, base: det.Mix(uint64(cfg.Seed), hashString(fingerprint))}
}

// Config returns the plan the injector was built from.
func (in *Injector) Config() Config { return in.cfg }

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// FSHook returns a store.FaultHook-shaped closure whose draws are
// keyed on (scope, op, ordinal): the Nth consultation of a given op
// within this hook's lifetime is a stable event. Create one hook per
// retry attempt (scoping it with the attempt number) so retried
// attempts see fresh draws instead of replaying the fault that killed
// them.
func (in *Injector) FSHook(scope ...uint64) func(op, path string) error {
	if in == nil || !in.cfg.FS.enabled() {
		return nil
	}
	base := append([]uint64{in.base, saltFS}, scope...)
	var seq atomic.Uint64
	return func(op, path string) error {
		var p float64
		switch op {
		case "write":
			p = in.cfg.FS.WriteFail
		case "sync":
			p = in.cfg.FS.SyncFail
		case "rename":
			p = in.cfg.FS.RenameFail
		case "crash":
			p = in.cfg.FS.CrashAfterCommit
		case "prune":
			p = in.cfg.FS.PruneFail
		default:
			return nil
		}
		n := seq.Add(1)
		if p <= 0 || !det.Bool(p, append(base, hashString(op), n)...) {
			return nil
		}
		return &InjectedError{Op: op, Path: path}
	}
}

// WireKind enumerates coordinator-side stream faults.
type WireKind uint8

const (
	WireNone WireKind = iota
	WireCut
	WireCorrupt
	WireHang
	WireDelay
)

func (k WireKind) String() string {
	switch k {
	case WireCut:
		return "cut"
	case WireCorrupt:
		return "corrupt"
	case WireHang:
		return "hang"
	case WireDelay:
		return "delay"
	default:
		return "none"
	}
}

// WireFault is one drawn stream fault: Kind says what happens once the
// reader has delivered Offset bytes; Delay is the stall length for
// WireDelay.
type WireFault struct {
	Kind   WireKind
	Offset int64
	Delay  time.Duration
}

// wireOffsetRange bounds drawn fault offsets. Worker streams open with
// a handshake and round frames well inside this window, and section
// dumps extend far past it at any realistic scale, so offsets land in
// live traffic.
const wireOffsetRange = 64 << 10

// WireFor draws at most one stream fault for one (shard, attempt)
// read stream. timeout is the liveness bound the retry policy enforces
// on the stream; injected delays stay under half of it so a delay
// alone never trips the watchdog.
func (in *Injector) WireFor(shard, attempt int, timeout time.Duration) WireFault {
	if in == nil || !in.cfg.Wire.enabled() {
		return WireFault{}
	}
	key := []uint64{in.base, saltWire, uint64(shard), uint64(attempt)}
	u := det.Float(key...)
	w := in.cfg.Wire
	var kind WireKind
	switch {
	case u < w.Cut:
		kind = WireCut
	case u < w.Cut+w.Corrupt:
		kind = WireCorrupt
	case u < w.Cut+w.Corrupt+w.Hang:
		kind = WireHang
	case u < w.Cut+w.Corrupt+w.Hang+w.Delay:
		kind = WireDelay
	default:
		return WireFault{}
	}
	f := WireFault{
		Kind:   kind,
		Offset: int64(det.IntN(wireOffsetRange, append(key, 1)...)),
	}
	if kind == WireDelay && timeout > 0 {
		f.Delay = time.Duration(det.Range(0.05, 0.45, append(key, 2)...) * float64(timeout))
	}
	return f
}

// DupRound reports whether the worker should emit the progress frame
// for this round twice on this attempt.
func (in *Injector) DupRound(shard, attempt, round int) bool {
	if in == nil || in.cfg.Wire.DupRound <= 0 {
		return false
	}
	return det.Bool(in.cfg.Wire.DupRound,
		in.base, saltDup, uint64(shard), uint64(attempt), uint64(round))
}

// ParseFlag parses the -faults CLI syntax: a comma-separated list of
// key=value pairs. An empty string means no injection (nil Config).
//
//	seed=N                           fault schedule seed
//	fs=P                             all FS probabilities at once
//	fs.write / fs.sync / fs.rename / fs.crash / fs.prune = P
//	wire=P                           wire cut, corrupt and dup_round at once
//	wire.cut / wire.corrupt / wire.hang / wire.delay / wire.dup = P
//
// The wire=P aggregate deliberately leaves hang and delay at zero:
// both cost real wall-clock time bounded by the liveness timeout and
// are opted into explicitly.
func ParseFlag(s string) (*Config, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	cfg := &Config{}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("faults: %q is not key=value", kv)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if key == "seed" {
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q", val)
			}
			cfg.Seed = n
			continue
		}
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || p < 0 || p > 1 {
			return nil, fmt.Errorf("faults: %s wants a probability in [0,1], got %q", key, val)
		}
		switch key {
		case "fs":
			cfg.FS = FSPlan{WriteFail: p, SyncFail: p, RenameFail: p, CrashAfterCommit: p, PruneFail: p}
		case "fs.write":
			cfg.FS.WriteFail = p
		case "fs.sync":
			cfg.FS.SyncFail = p
		case "fs.rename":
			cfg.FS.RenameFail = p
		case "fs.crash":
			cfg.FS.CrashAfterCommit = p
		case "fs.prune":
			cfg.FS.PruneFail = p
		case "wire":
			cfg.Wire.Cut = p
			cfg.Wire.Corrupt = p
			cfg.Wire.DupRound = p
		case "wire.cut":
			cfg.Wire.Cut = p
		case "wire.corrupt":
			cfg.Wire.Corrupt = p
		case "wire.hang":
			cfg.Wire.Hang = p
		case "wire.delay":
			cfg.Wire.Delay = p
		case "wire.dup":
			cfg.Wire.DupRound = p
		default:
			return nil, fmt.Errorf("faults: unknown key %q", key)
		}
	}
	return cfg, nil
}
