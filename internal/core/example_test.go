package core_test

import (
	"context"
	"fmt"
	"log"

	"v6web/internal/core"
)

// A campaign is a resumable round cursor driven under a context: the
// observer sees every (round, vantage) completion as it happens, and
// the cursor reports progress. Checkpointing (core.WithCheckpoint) and
// core.Open extend the same call into a crash-safe long-lived
// campaign.
func ExampleScenario_RunContext() {
	cfg := core.DefaultConfig(1)
	cfg.NASes = 150
	cfg.ListSize = 1000
	cfg.Extended = 0
	cfg.Rounds = 4
	cfg.Vantages = core.ScaledVantages(cfg.Rounds)

	s, err := core.NewScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	pennRounds := 0
	err = s.RunContext(context.Background(), core.WithObserver(func(ev core.RoundEvent) {
		if ev.Vantage == "Penn" && ev.Stats.Sites > 0 {
			pennRounds++
		}
	}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rounds done:", s.RoundsDone())
	fmt.Println("Penn monitored in", pennRounds, "rounds")
	// Output:
	// rounds done: 4
	// Penn monitored in 4 rounds
}
