package scenario

import (
	"context"
	"fmt"
	"io"

	"v6web/internal/analysis"
	"v6web/internal/core"
)

// exhibitOrder fixes the paper's exhibit order; Render emits selected
// exhibits in this order regardless of how the pack lists them.
var exhibitOrder = []string{
	"fig1", "fig3a", "fig3b", "table1",
	"table2", "table3", "table4", "table5", "table6", "table7",
	"table8", "table9", "table10", "table11", "table12", "table13",
	"betterv6", "tunnels", "coverage", "traceroute",
}

// Exhibits returns every exhibit name a pack's report.exhibits may
// select, in render order ("all" is also accepted and means all of
// them).
func Exhibits() []string {
	out := make([]string, len(exhibitOrder))
	copy(out, exhibitOrder)
	return out
}

func validExhibit(name string) bool {
	if name == "all" {
		return true
	}
	for _, ex := range exhibitOrder {
		if ex == name {
			return true
		}
	}
	return false
}

// needsV6Day reports whether the selection includes a World IPv6 Day
// exhibit (the side experiment is only run when one is selected).
func needsV6Day(selected map[string]bool) bool {
	return selected["table10"] || selected["table12"]
}

// Render runs the campaign (and, when selected exhibits need it, the
// World IPv6 Day side experiment) and renders the selected exhibits
// to w in the paper's order. A nil or empty selection renders
// everything — identical to Scenario.ReportAll.
func Render(w io.Writer, s *core.Scenario, exhibits []string) error {
	if len(exhibits) == 0 {
		return s.ReportAll(w)
	}
	selected := make(map[string]bool, len(exhibits))
	for _, ex := range exhibits {
		if ex == "all" {
			return s.ReportAll(w)
		}
		if !validExhibit(ex) {
			return fmt.Errorf("scenario: unknown exhibit %q", ex)
		}
		selected[ex] = true
	}
	if err := s.RunContext(context.TODO()); err != nil {
		return err
	}
	var v6day *analysis.Study
	if needsV6Day(selected) {
		if err := s.RunWorldV6DayContext(context.TODO()); err != nil {
			return err
		}
		v6day = s.V6DayStudy()
	}
	// One shared exhibit sequence: the full report and a pack-selected
	// one render through the same core path, so ordering and captions
	// cannot drift.
	s.RenderExhibits(w, v6day, selected)
	return nil
}
