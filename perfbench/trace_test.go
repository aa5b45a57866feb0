package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "campaign", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "NextRound", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "NextRound", Start: 4, End: 7},
		{ID: 4, Parent: 1, Name: "Checkpoint", Start: 7, End: 8},
		{ID: 5, Name: "report", Start: 10, End: 14},
		// Overlapping children (pipelined requests) count once, and a
		// child running past its parent counts only inside it.
		{ID: 6, Parent: 5, Name: "GET", Start: 10.5, End: 12},
		{ID: 7, Parent: 5, Name: "GET", Start: 11, End: 13},
		{ID: 8, Parent: 5, Name: "GET", Start: 13.5, End: 15},
		{ID: 9, Parent: 2, Name: "inner", Start: 2, End: 3},
	}
	want := map[string]float64{
		"campaign":   10 - 7, // rounds and checkpoint cover 1..8
		"NextRound":  3 + 3 - 1,
		"Checkpoint": 1,
		"report":     4 - 2.5 - 0.5, // 10.5..13 and 13.5..14
		"GET":        1.5 + 2 + 1.5,
		"inner":      1,
	}
	got := selfTimes(spans)
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestTracerRecordsOnlyWhenOn(t *testing.T) {
	t0 := time.Now()
	for _, on := range []bool{false, true} {
		tr := newTracer(on, "test", t0)
		d, err := tr.time("outer", 0, func(id int) error {
			_, err := tr.time("inner", id, func(int) error {
				time.Sleep(2 * time.Millisecond)
				return nil
			})
			return err
		})
		if err != nil || d < 2*time.Millisecond {
			t.Fatalf("on=%v: timed %v, %v", on, d, err)
		}
		spans := tr.snapshot()
		if !on {
			if len(spans) != 0 || tr.overhead() != 0 {
				t.Errorf("tracing off recorded %d spans at a cost of %v", len(spans), tr.overhead())
			}
			continue
		}
		// The recording's own cost is measured, and it is far below
		// the 2 ms the traced calls took.
		if c := tr.overhead(); c <= 0 || c > time.Millisecond {
			t.Errorf("recording two spans cost %v", c)
		}
		if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].End < spans[1].End {
			t.Errorf("tracing on recorded %+v, want outer enclosing inner", spans)
		}
	}
}
