package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"v6web/internal/store"
)

// facts are a run's outputs that must repeat exactly for its input:
// the report digest, the table counts and the visit counts. They are
// simulation outputs, so they pin behaviour, not performance.
type facts map[string]string

func (f facts) String() string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%s", k, f[k])
	}
	return sb.String()
}

func (f facts) setInt(k string, v int64) { f[k] = strconv.FormatInt(v, 10) }

func (f facts) digest(k string, data []byte) {
	sum := sha256.Sum256(data)
	f[k] = hex.EncodeToString(sum[:])
}

// counts records a database's DB.Counts under prefix.
func (f facts) counts(prefix string, db *store.DB) {
	sites, dns, samples, paths := db.Counts()
	f.setInt(prefix+".sites", int64(sites))
	f.setInt(prefix+".dns_rows", int64(dns))
	f.setInt(prefix+".sample_rows", int64(samples))
	f.setInt(prefix+".path_snaps", int64(paths))
}

// golden.json pins the facts of the default seed (and of the seeds the
// benchmark was proven on), taken at the commit that introduced it.
//
//go:embed golden.json
var goldenJSON []byte

// factsKey names an input: the workload family (campaign and sharded
// share one, since they must produce the same outputs) and the seed.
func (b *bench) factsKey(family string, seed int64) string {
	k := fmt.Sprintf("%s seed=%d", family, seed)
	if b.opt.tiny {
		k = "tiny " + k
	}
	return k
}

// checkFacts compares f with the pinned facts for key and with the
// facts earlier runs in this checkout recorded for it — every value
// both hold must agree — and then records f, unless this run has found
// a problem: a wrong run must not become the record later runs are
// held to.
func (b *bench) checkFacts(key string, f facts) error {
	fmt.Fprintf(b.log, "facts [%s]: %s\n", key, f)
	var golden map[string]facts
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	b.compareFacts("pinned", key, golden[key], f)

	path := filepath.Join(b.opt.state, "facts.json")
	seen := map[string]facts{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &seen); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	b.compareFacts("recorded", key, seen[key], f)
	if len(b.problems) > 0 {
		return nil
	}
	if seen[key] == nil {
		seen[key] = facts{}
	}
	for k, v := range f {
		seen[key][k] = v
	}
	data, err := json.MarshalIndent(seen, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func (b *bench) compareFacts(source, key string, want, got facts) {
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if w, ok := want[k]; ok && w != got[k] {
			b.problem("%s %s: %s = %s, %s value is %s", key, k, k, got[k], source, w)
		}
	}
}
