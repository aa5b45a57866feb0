package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"v6web/internal/core"
	"v6web/internal/topo"
)

func smallBase(seed int64) core.Config {
	cfg := core.DefaultConfig(seed)
	cfg.NASes = 500
	cfg.ListSize = 4000
	cfg.Extended = 0
	cfg.Rounds = 18
	cfg.Vantages = core.ScaledVantages(cfg.Rounds)
	return cfg
}

func TestSweepParityMovesSPShare(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	points := []Point{
		{Label: "low", Mutate: func(c *core.Config) {
			tc := topo.DefaultGenConfig(c.NASes, c.Seed)
			tc.V6EdgeParity = 0.5
			c.TopoOverride = &tc
		}},
		{Label: "full", Mutate: func(c *core.Config) {
			tc := topo.DefaultGenConfig(c.NASes, c.Seed)
			tc.V6EdgeParity = 1.0
			tc.TunnelFrac = 0
			c.TopoOverride = &tc
		}},
	}
	results, err := Run(smallBase(7), points, map[string]Metric{"sp": SPShare, "h1": H1Comparable})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	if results[1].Values["sp"] <= results[0].Values["sp"] {
		t.Fatalf("parity did not raise SP share: %v vs %v",
			results[0].Values["sp"], results[1].Values["sp"])
	}
}

func TestParallelMatchesSerialOrderAndValues(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	base := smallBase(5)
	base.NASes = 300
	base.ListSize = 1000
	base.Rounds = 8
	base.Vantages = core.ScaledVantages(base.Rounds)
	var points []Point
	for _, p := range []float64{0.5, 0.65, 0.8, 1.0} {
		parity := p
		points = append(points, Point{
			Label: fmt.Sprintf("parity=%.2f", parity),
			Mutate: func(c *core.Config) {
				tc := topo.DefaultGenConfig(c.NASes, c.Seed)
				tc.V6EdgeParity = parity
				c.TopoOverride = &tc
			},
		})
	}
	metrics := map[string]Metric{"sp": SPShare, "kept": KeptFraction}
	serial, err := RunContext(context.Background(), base, points, metrics, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunContext(context.Background(), base, points, metrics, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(points) || len(parallel) != len(points) {
		t.Fatalf("result lengths: %d serial, %d parallel", len(serial), len(parallel))
	}
	for i := range points {
		if serial[i].Label != points[i].Label || parallel[i].Label != points[i].Label {
			t.Fatalf("result %d out of order: serial %q parallel %q want %q",
				i, serial[i].Label, parallel[i].Label, points[i].Label)
		}
		for name, want := range serial[i].Values {
			if got := parallel[i].Values[name]; got != want {
				t.Fatalf("point %q metric %s: parallel %v != serial %v", points[i].Label, name, got, want)
			}
		}
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	points := []Point{{Label: "a"}, {Label: "b"}}
	if _, err := RunContext(ctx, smallBase(1), points, nil, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v", err)
	}
}

func TestSweepErrorPropagates(t *testing.T) {
	points := []Point{{Label: "broken", Mutate: func(c *core.Config) { c.NASes = 1 }}}
	if _, err := Run(smallBase(1), points, nil); err == nil {
		t.Fatal("broken config did not error")
	}
}

func TestWriteRendering(t *testing.T) {
	results := []Result{
		{Label: "a", Values: map[string]float64{"x": 1.5, "y": 2.25}},
		{Label: "bb", Values: map[string]float64{"x": 3, "y": 4}},
	}
	var buf bytes.Buffer
	Write(&buf, "title", results)
	out := buf.String()
	for _, want := range []string{"title", "a", "bb", "1.50", "4.00", "x", "y"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	var empty bytes.Buffer
	Write(&empty, "none", nil)
	if !strings.Contains(empty.String(), "no results") {
		t.Fatal("empty rendering")
	}
}

func TestMetricsOnFreshScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run in -short mode")
	}
	s, err := core.NewScenario(smallBase(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]Metric{
		"sp": SPShare, "h1": H1Comparable, "h2": H2Comparable,
		"dl": DLV4Advantage, "kept": KeptFraction, "deficit": V6DeficitDP,
	} {
		v := m(s)
		if v < -1 || v > 1.0001 {
			t.Fatalf("metric %s = %v out of range", name, v)
		}
	}
	if KeptFraction(s) == 0 {
		t.Fatal("kept fraction zero")
	}
}
