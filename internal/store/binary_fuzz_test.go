package store

// Fuzz targets for the snapshot decoder. The invariant under fuzz is
// the corruption contract: arbitrary bytes either decode (only
// byte-identical re-encodings of real snapshots can pass the
// checksums) or fail with a typed error — never a panic, never
// unbounded allocation. Seeds come from golden snapshots of
// binarySampleDB plus the committed corpus under
// testdata/fuzz/<target>/, which plain `go test` replays as unit
// tests; CI additionally runs each target with -fuzztime=30s.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"v6web/internal/topo"
)

// fuzzSeedSnapshots builds the golden snapshot seeds: compressed and
// uncompressed dumps of the kitchen-sink sample database, an empty
// database, and a database with only overflow ids.
func fuzzSeedSnapshots(tb testing.TB) [][]byte {
	tb.Helper()
	dir, err := filepath.Abs(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	var seeds [][]byte
	add := func(db *DB, opt BinaryOptions) {
		path := filepath.Join(dir, "seed"+BinaryExt)
		if err := db.SaveBinary(path, opt); err != nil {
			tb.Fatal(err)
		}
		data, _, err := mapSnapshotFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, append([]byte(nil), data...))
	}
	add(binarySampleDB(), BinaryOptions{Compress: false})
	add(binarySampleDB(), BinaryOptions{Compress: true, Fingerprint: "deadbeef"})
	add(NewDB(), BinaryOptions{})
	sparse := NewDB()
	sparse.PutSite(SiteRow{Site: 123456789, Host: "over.example", FirstRank: 1, V4AS: -1, V6AS: -1})
	sparse.AddDNS("penn", DNSRow{Site: 123456789, Round: 0, HasA: true})
	add(sparse, BinaryOptions{Compress: true})
	return seeds
}

// craftedHeaderSeeds returns adversarial inputs no mutation of a
// golden snapshot reaches quickly: bare CRC-valid headers whose index
// offsets sit at the uint64 overflow boundary. Regression seeds for
// the indexOff+4 wraparound that let a valid header slice out of
// bounds.
func craftedHeaderSeeds() [][]byte {
	var seeds [][]byte
	for _, off := range []uint64{^uint64(0), ^uint64(0) - 3} {
		hdr := make([]byte, binHeaderSize)
		copy(hdr, snapshotFile.magic[:])
		binary.LittleEndian.PutUint32(hdr[8:], snapshotFile.version)
		binary.LittleEndian.PutUint64(hdr[40:], off)
		binary.LittleEndian.PutUint32(hdr[48:], crc32.Checksum(hdr[:48], binCRCTable))
		seeds = append(seeds, hdr)
	}
	return seeds
}

func FuzzLoadSnapshot(f *testing.F) {
	for _, seed := range craftedHeaderSeeds() {
		f.Add(seed)
	}
	for _, seed := range fuzzSeedSnapshots(f) {
		f.Add(seed)
		// Mutated variants steer the fuzzer toward the interesting
		// failure surface immediately.
		if len(seed) > binHeaderSize {
			f.Add(seed[:binHeaderSize])
			f.Add(seed[:len(seed)-5])
			flipped := append([]byte(nil), seed...)
			flipped[len(flipped)/2] ^= 1
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := decodeBinarySnapshot("fuzz"+BinaryExt, data)
		if err != nil {
			var ce *CorruptSnapshotError
			if !errors.As(err, &ce) {
				t.Fatalf("decode error is not a *CorruptSnapshotError: %v", err)
			}
			if ce.Section == "" {
				t.Fatalf("corruption error without a section label: %v", err)
			}
			return
		}
		// Accepted input: the database must be walkable.
		db.Counts()
	})
}

// sectionSeed is one golden (section id, payload) pair for
// FuzzDecodeSection and the committed-corpus regenerator.
type sectionSeed struct {
	name    string
	section byte
	payload []byte
}

// fuzzSectionSeeds encodes one payload per section kind from the
// sample database.
func fuzzSectionSeeds(tb testing.TB) []sectionSeed {
	tb.Helper()
	db := binarySampleDB()
	var seeds []sectionSeed
	add := func(name string, section byte, b []byte) {
		seeds = append(seeds, sectionSeed{name: name, section: section, payload: b})
	}
	var w wbuf
	db.appendShardSites(&w, 0, snapAllSites)
	add("golden-sites", ShardSites, w.b)
	for _, s := range []struct {
		name    string
		section byte
		encode  func(w *wbuf) int
	}{
		{"golden-dns", ShardDNS, func(w *wbuf) int { return db.appendDNS(w, "penn", 0, snapAllSites, 0, 0, nil) }},
		{"golden-samples", ShardSamples, func(w *wbuf) int { return db.appendSamples(w, "penn", 0, snapAllSites, 0) }},
		{"golden-paths", snapPaths, func(w *wbuf) int { return db.appendPaths(w, "penn", 0) }},
	} {
		w = wbuf{}
		s.encode(&w)
		add(s.name, s.section, w.b)
	}
	add("golden-unknown-empty", 0, []byte{})
	return append(seeds, pastLastRoundSections()...)
}

// pastLastRoundSections returns a samples and a paths section for
// vantage penn, each holding one row at maxRound: the first round the
// writers refuse, so a decoder must refuse it too.
func pastLastRoundSections() []sectionSeed {
	var samples wbuf
	samples.uvarint(1) // one date
	samples.u64(0)
	samples.uvarint(1) // one series: site 3, IPv6
	samples.uvarint(3)
	samples.byteVal(byte(topo.V6))
	samples.samples([]packedSample{{round: maxRound, page: 10, speed: 1}}, []int64{0})
	var paths wbuf
	paths.uvarint(1) // one key: IPv6 to AS 9
	paths.byteVal(byte(topo.V6))
	paths.uvarint(9)
	paths.pathSnaps([]PathSnapshot{{Round: maxRound, Path: []int{2, 9}}})
	return []sectionSeed{
		{"crafted-samples-past-last-round", ShardSamples, samples.b},
		{"crafted-paths-past-last-round", snapPaths, paths.b},
	}
}

func FuzzDecodeSection(f *testing.F) {
	for _, s := range fuzzSectionSeeds(f) {
		f.Add(s.section, s.payload)
	}

	f.Fuzz(func(t *testing.T, section byte, payload []byte) {
		fresh := NewDB()
		fresh.Reserve(64, 1<<20, 32)
		r := &rbuf{b: payload}
		if err := r.done(fresh.decodeSection(r, section, "penn", 0, snapAllSites, 0)); err != nil {
			return
		}
		fresh.Counts()
	})
}

// segmentSeeds returns the golden base FuzzApplySegment applies to —
// binarySampleDB after chainRound 10, saved as a backend's base — and
// segments continuing it over one, two and six rounds (the last adds a
// vantage and grows the reservation), with the live database each
// segment must reproduce.
func segmentSeeds(tb testing.TB) (base []byte, segs [][]byte, lives []*DB) {
	tb.Helper()
	dir := tb.TempDir()
	read := func(path string) []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	golden := func() (*DB, dbMark) {
		db := binarySampleDB()
		chainRound(db, 10)
		m, _ := db.mark()
		return db, m
	}
	db, _ := golden()
	basePath := filepath.Join(dir, "base"+BinaryExt)
	if err := db.SaveBinary(basePath, BinaryOptions{Compress: true}); err != nil {
		tb.Fatal(err)
	}
	base = read(basePath)
	for _, upto := range []int{11, 12, 16} {
		db, m := golden()
		for r := 11; r <= upto; r++ {
			chainRound(db, r)
		}
		path := filepath.Join(dir, segName("seed", upto))
		err := saveFrames(path, BinaryOptions{Compress: upto != 11}, func(f *os.File, opt BinaryOptions) error {
			return db.writeSegment(f, opt, m)
		})
		if err != nil {
			tb.Fatal(err)
		}
		segs = append(segs, read(path))
		lives = append(lives, db)
	}
	return base, segs, lives
}

// FuzzApplySegment: arbitrary bytes applied to the golden base either
// decode or fail as a *CorruptSnapshotError — never a panic, and the
// decoder allocates O(input) (plus at most the base's reservation
// again; see segmentReservable).
func FuzzApplySegment(f *testing.F) {
	base, segs, _ := segmentSeeds(f)
	for _, seg := range segs {
		f.Add(seg)
		f.Add(seg[:len(seg)-5])
		flipped := append([]byte(nil), seg...)
		flipped[len(flipped)/2] ^= 1
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := decodeBinarySnapshot("base"+BinaryExt, base)
		if err != nil {
			t.Fatal(err)
		}
		if err := applySegment(db, "fuzz"+segExt, data); err != nil {
			var ce *CorruptSnapshotError
			if !errors.As(err, &ce) {
				t.Fatalf("segment error is not a *CorruptSnapshotError: %v", err)
			}
			if ce.Section == "" {
				t.Fatalf("corruption error without a section label: %v", err)
			}
			return
		}
		db.Counts()
	})
}

// TestSegmentSeedsApply: each golden segment applied to the golden
// base reproduces the live database it was written from.
func TestSegmentSeedsApply(t *testing.T) {
	base, segs, lives := segmentSeeds(t)
	for i, seg := range segs {
		db, err := decodeBinarySnapshot("base"+BinaryExt, base)
		if err != nil {
			t.Fatal(err)
		}
		if err := applySegment(db, "seed"+segExt, seg); err != nil {
			t.Fatalf("seed %d does not apply: %v", i, err)
		}
		if !bytes.Equal(snapshotBytes(t, db), snapshotBytes(t, lives[i])) {
			t.Fatalf("seed %d applied differs from its live database", i)
		}
	}
}

// TestFuzzSeedsDecode replays the generated golden seeds through the
// full load path even when the committed corpus is absent, so the
// seed corpus itself can never rot unnoticed.
func TestFuzzSeedsDecode(t *testing.T) {
	for i, seed := range fuzzSeedSnapshots(t) {
		if _, err := decodeBinarySnapshot("seed"+BinaryExt, seed); err != nil {
			t.Errorf("seed %d does not decode: %v", i, err)
		}
	}
}

// TestRegenerateFuzzCorpus rewrites the deterministic golden entries
// of the committed corpus under testdata/fuzz/. Guarded by an env var
// so a plain test run never mutates the repository:
//
//	V6WEB_REGEN_CORPUS=1 go test ./internal/store -run TestRegenerateFuzzCorpus
//
// The rest of the committed corpus is fuzzer-discovered (hash-named
// files) and is curated by hand.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("V6WEB_REGEN_CORPUS") == "" {
		t.Skip("set V6WEB_REGEN_CORPUS=1 to rewrite the golden corpus entries")
	}
	writeSeed := func(target, name string, lines ...string) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := "go test fuzz v1\n"
		for _, ln := range lines {
			body += ln + "\n"
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{"golden-uncompressed", "golden-compressed", "golden-empty", "golden-overflow"}
	for i, seed := range fuzzSeedSnapshots(t) {
		writeSeed("FuzzLoadSnapshot", names[i], fmt.Sprintf("[]byte(%q)", seed))
	}
	for i, seed := range craftedHeaderSeeds() {
		writeSeed("FuzzLoadSnapshot", fmt.Sprintf("crafted-indexoff-%d", i), fmt.Sprintf("[]byte(%q)", seed))
	}
	for _, s := range fuzzSectionSeeds(t) {
		writeSeed("FuzzDecodeSection", s.name,
			fmt.Sprintf("byte(%q)", rune(s.section)), fmt.Sprintf("[]byte(%q)", s.payload))
	}
	_, segs, _ := segmentSeeds(t)
	for i, seg := range segs {
		writeSeed("FuzzApplySegment", []string{"golden-one-round", "golden-two-rounds", "golden-new-vantage"}[i], fmt.Sprintf("[]byte(%q)", seg))
	}
	for _, s := range csvFuzzSeeds(saveCSVBytes(t, binarySampleDB())) {
		writeSeed("FuzzLoadCSV", s.name, fmt.Sprintf("byte(%q)", rune(s.file)), fmt.Sprintf("[]byte(%q)", s.data))
	}
}
