package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call into the program at a layer
// boundary, an HTTP request, or an interval derived from the daemon's
// event stream. Spans of one run share the tracer's run id.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // 0: a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the run began
	End    float64 `json:"end_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer records spans in memory; they are written out once, when the
// run ends. With tracing off it records nothing, but timed calls are
// still timed: both modes read the same clocks, so a traced run
// differs from an untraced one only by the recording itself, whose
// cost the tracer measures as it goes.
type tracer struct {
	on  bool
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
	cost  time.Duration // spent recording: taking the lock and appending
}

func newTracer(on bool, run string, t0 time.Time) *tracer {
	return &tracer{on: on, run: run, t0: t0}
}

func (t *tracer) at(ts time.Time) float64 { return ts.Sub(t.t0).Seconds() }

// time runs fn as a span named name under parent and returns how long
// it took. fn receives the span's id to parent its own child spans.
func (t *tracer) time(name string, parent int, fn func(id int) error) (time.Duration, error) {
	id := 0
	start := time.Now()
	if t.on {
		t.mu.Lock()
		id = len(t.spans) + 1
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.at(start)})
		t.cost += time.Since(start)
		t.mu.Unlock()
	}
	err := fn(id)
	end := time.Now()
	if t.on {
		t.mu.Lock()
		t.spans[id-1].End = t.at(end)
		t.cost += time.Since(end)
		t.mu.Unlock()
	}
	return end.Sub(start), err
}

// do is time for a call that cannot fail.
func (t *tracer) do(name string, parent int, fn func()) {
	t.time(name, parent, func(int) error {
		fn()
		return nil
	})
}

// record adds a span whose interval was timed elsewhere and returns
// its id (0 with tracing off).
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	if !t.on {
		return 0
	}
	c := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.at(start), End: t.at(end)})
	t.cost += time.Since(c)
	return id
}

// overhead returns the time spent recording spans so far.
func (t *tracer) overhead() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cost
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations, in seconds, of the spans named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// selfTimes returns each span name's summed self time: a span's
// duration minus the part of its interval its child spans cover
// (children that overlap each other are counted once).
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(lo, hi float64, ivs [][2]float64) float64 {
	ivs = append([][2]float64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, cur := 0.0, lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves the run's spans and host facts as one JSON file in dir.
func (t *tracer) write(dir string, h host) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Run   string `json:"run"`
		Host  host   `json:"host"`
		Spans []span `json:"spans"`
	}{t.run, h, t.snapshot()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, t.run+".json"), data, 0o644)
}
