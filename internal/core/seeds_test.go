package core

import (
	"context"
	"testing"
)

// TestShapeAcrossSeeds guards the headline findings against seed
// luck: H1 and H2 must hold in three independently generated worlds.
func TestShapeAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep in -short mode")
	}
	for _, seed := range []int64{101, 202, 303} {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(seed)
			cfg.NASes = 900
			cfg.ListSize = 9000
			cfg.Extended = 0
			cfg.Rounds = 28
			cfg.Vantages = ScaledVantages(cfg.Rounds)
			s, err := NewScenario(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RunContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			study := s.Study()
			sp := study.Table8()
			dp := study.Table11()
			// Pool ASes across vantages for stable fractions.
			var spComp, spN, dpComp, dpN float64
			for i := range sp {
				spComp += (sp[i].FracComparable + sp[i].FracZeroMode) * float64(sp[i].NASes)
				spN += float64(sp[i].NASes)
				dpComp += (dp[i].FracComparable + dp[i].FracZeroMode) * float64(dp[i].NASes)
				dpN += float64(dp[i].NASes)
			}
			if spN < 5 || dpN < 10 {
				t.Skipf("seed %d: too few classified ASes (sp=%v dp=%v)", seed, spN, dpN)
			}
			h1 := spComp / spN
			h2 := dpComp / dpN
			if h1 < 0.6 {
				t.Fatalf("seed %d: H1 fails, SP comparable %v", seed, h1)
			}
			if h2 > 0.45 {
				t.Fatalf("seed %d: H2 fails, DP comparable %v", seed, h2)
			}
			if h1 <= h2+0.2 {
				t.Fatalf("seed %d: SP/DP gap too small: %v vs %v", seed, h1, h2)
			}
		})
	}
}
