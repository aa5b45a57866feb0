package shard

import (
	"encoding/json"
	"testing"
)

// TestCheckpointFingerprintTravelsInSpec pins that the campaign
// fingerprint survives the JSON trip to the worker and lands in the
// worker's checkpoint backend, which stamps it into every snapshot.
func TestCheckpointFingerprintTravelsInSpec(t *testing.T) {
	blob, err := json.Marshal(Spec{Index: 1, Fingerprint: "fp", CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if b := checkpointBackend(back, nil); b.Fingerprint != "fp" {
		t.Fatalf("backend got fingerprint %q", b.Fingerprint)
	}
}
