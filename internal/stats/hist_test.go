package stats

import (
	"testing"
	"testing/quick"
)

func TestShareBuckets(t *testing.T) {
	got := ShareBuckets([]float64{1.0, 0.9, 0.75, 0.6, 0.5, 0.3, 0.25, 0.1, 0})
	want := [5]int{1, 2, 2, 2, 2}
	if got != want {
		t.Fatalf("ShareBuckets = %v, want %v", got, want)
	}
}

func TestShareBucketsTotalProperty(t *testing.T) {
	f := func(raw []float64) bool {
		got := ShareBuckets(raw)
		total := 0
		for _, c := range got {
			total += c
		}
		return total == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
