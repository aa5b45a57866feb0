package daemon

// The on-disk campaign manifest: a resolved scenario spec (pack plus
// command-line overrides, already applied) written next to the
// campaign's checkpoints. Restart-after-SIGKILL rediscovers campaigns
// by scanning for these files — no operator re-registration — and the
// stored fingerprint cross-checks that the manifest still compiles to
// the world the checkpoints belong to.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"v6web/internal/scenario"
	"v6web/internal/store"
)

const manifestFile = "campaign.json"

type manifest struct {
	Name        string          `json:"name"`
	Spec        json.RawMessage `json:"spec"`
	Fingerprint string          `json:"fingerprint"`
}

// writeManifest persists the campaign definition atomically and
// durably (store.WriteFileDurable), so a crash or power failure
// mid-write leaves either the old manifest or none, never a truncated
// or empty one that would block discovery on the next start.
func writeManifest(dir string, sp *scenario.Spec, fingerprint string) error {
	spec, err := sp.Encode()
	if err != nil {
		return err
	}
	m := manifest{
		Name:        filepath.Base(dir),
		Spec:        spec,
		Fingerprint: fingerprint,
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return store.WriteFileDurable(filepath.Join(dir, manifestFile), append(data, '\n'))
}

// readManifest loads and re-validates a campaign manifest: the spec
// must parse and compile, and must still fingerprint to what was
// registered — a hand-edited spec under existing checkpoints is a
// loud error here rather than a resume failure later. Manifests from
// builds that could checkpoint as CSV also carry a "format" field; it
// is ignored: every campaign checkpoints binary. Such a campaign's CSV
// checkpoints no longer load, so its resume fails as a corrupt or
// missing checkpoint, and the campaign is rerun.
func readManifest(dir string) (scenario.Compiled, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return scenario.Compiled{}, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return scenario.Compiled{}, fmt.Errorf("daemon: manifest %s: %w", dir, err)
	}
	sp, err := scenario.Parse(m.Spec)
	if err != nil {
		return scenario.Compiled{}, fmt.Errorf("daemon: manifest %s: %w", dir, err)
	}
	comp, err := sp.Compile()
	if err != nil {
		return scenario.Compiled{}, fmt.Errorf("daemon: manifest %s: %w", dir, err)
	}
	if fp := comp.Config.Fingerprint(); fp != m.Fingerprint {
		return scenario.Compiled{}, fmt.Errorf(
			"daemon: manifest %s: spec compiles to fingerprint %s but was registered as %s — the spec changed under the campaign's checkpoints", dir, fp, m.Fingerprint)
	}
	return comp, nil
}
