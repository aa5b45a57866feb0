package core

import (
	"testing"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// TestLiveStudyMatchesModel closes the loop between the simulation
// and the wire: real-socket downloads against servers shaped by the
// model must reproduce the model's v6/v4 speed ratios.
func TestLiveStudyMatchesModel(t *testing.T) {
	if testing.Short() {
		t.Skip("live sockets in -short mode")
	}
	cfg := DefaultConfig(5)
	cfg.NASes = 500
	cfg.ListSize = 4000
	cfg.Extended = 0
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Pick a handful of dual-stack sites with decent page sizes (so
	// transfer dominates setup).
	var ids []alexa.SiteID
	for _, id := range s.List.Ranked() {
		rank := s.List.FirstSeenRank(id)
		site := s.Catalog.Site(id, rank)
		if site.V6AS >= 0 && site.SameContent(0.06) && site.PageV4 > 20000 && site.PageV4 < 200000 {
			ids = append(ids, id)
			if len(ids) == 6 {
				break
			}
		}
	}
	if len(ids) < 3 {
		t.Skip("too few dual sites at this scale")
	}
	ls, err := NewLiveStudy(s, "Penn", ids)
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	st := ls.RunRound(0)
	if st.Measured == 0 {
		t.Fatalf("nothing measured over live sockets: %+v", st)
	}

	checked := 0
	snap := ls.DB.Freeze()
	for _, ref := range ls.Sites() {
		s4 := snap.Series(nil, ls.Vantage, ref.ID, topo.V4)
		s6 := snap.Series(nil, ls.Vantage, ref.ID, topo.V6)
		if len(s4) != 1 || len(s6) != 1 || s4[0].MeanSpeed <= 0 || s6[0].MeanSpeed <= 0 {
			continue
		}
		p4, p6 := ls.PredictedV4(ref.ID), ls.PredictedV6(ref.ID)
		if p4 <= 0 || p6 <= 0 {
			continue
		}
		measured := s6[0].MeanSpeed / s4[0].MeanSpeed
		predicted := p6 / p4
		// Shaping + setup overhead leave slack; the ratio must still
		// land in the right neighbourhood.
		if measured < predicted*0.5 || measured > predicted*2.0 {
			t.Fatalf("site %d: measured v6/v4 %v vs predicted %v", ref.ID, measured, predicted)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no site produced comparable measurements")
	}
}

func TestLiveStudyErrors(t *testing.T) {
	cfg := DefaultConfig(6)
	cfg.NASes = 300
	cfg.ListSize = 1000
	cfg.Extended = 0
	s, err := NewScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLiveStudy(s, "nope", []alexa.SiteID{1}); err == nil {
		t.Fatal("unknown vantage accepted")
	}
}
