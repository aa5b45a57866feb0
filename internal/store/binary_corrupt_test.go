package store

// Corruption property tests: every way a snapshot file can be damaged
// on disk — truncation at arbitrary points (torn writes), a flipped
// bit in any region, appended garbage — must surface as a typed
// *CorruptSnapshotError naming the damaged part. Never a panic, never
// a silent success, and never ErrNoDatabase (the file exists).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"v6web/internal/topo"
)

// goldenSnapshot saves binarySampleDB and returns the file bytes plus
// the parsed section index.
func goldenSnapshot(t *testing.T, compress bool) ([]byte, []binSection) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "golden"+BinaryExt)
	if err := binarySampleDB().SaveBinary(path, BinaryOptions{Compress: compress, Fingerprint: "deadbeef"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, secs, _, err := parseBinSnapshot(path, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) < 5 {
		t.Fatalf("golden snapshot has only %d sections", len(secs))
	}
	return data, secs
}

// loadMutated decodes mutated snapshot bytes and requires a
// *CorruptSnapshotError distinct from ErrNoDatabase. It returns the
// error's Section label for callers that pin which part was blamed.
func loadMutated(t *testing.T, what string, data []byte) string {
	t.Helper()
	db, err := decodeBinarySnapshot("mutated"+BinaryExt, data)
	if err == nil {
		// Loading damaged bytes silently is the one unacceptable
		// outcome; db is non-nil only to show what it decoded to.
		s, d, sa, p := db.Counts()
		t.Fatalf("%s: decoded without error (counts %d %d %d %d)", what, s, d, sa, p)
	}
	var ce *CorruptSnapshotError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: error is not a *CorruptSnapshotError: %v", what, err)
	}
	if errors.Is(err, ErrNoDatabase) {
		t.Fatalf("%s: corruption misreported as no database: %v", what, err)
	}
	if ce.Section == "" || ce.Err == nil {
		t.Fatalf("%s: error does not name a section: %#v", what, ce)
	}
	return ce.Section
}

func TestBinaryTruncationAtEveryFrameBoundary(t *testing.T) {
	for _, compress := range []bool{false, true} {
		data, secs := goldenSnapshot(t, compress)
		cuts := map[string]int{
			"empty file":       0,
			"half a header":    binHeaderSize / 2,
			"header only":      binHeaderSize,
			"missing checksum": len(data) - 4,
			"one byte short":   len(data) - 1,
		}
		for _, s := range secs {
			name := sectionName(s.section, s.vantage)
			cuts["start of "+name] = int(s.off)
			cuts["middle of "+name] = int(s.off) + int(s.clen)/2
			cuts["end of "+name] = int(s.off + s.clen)
		}
		for what, cut := range cuts {
			loadMutated(t, what, data[:cut])
		}
	}
}

func TestBinaryBitFlipInEverySection(t *testing.T) {
	data, secs := goldenSnapshot(t, true)
	flip := func(off int) []byte {
		mutated := append([]byte(nil), data...)
		mutated[off] ^= 0x40
		return mutated
	}
	// One byte per section payload: the blamed section must be the
	// flipped one (its checksum fails before any decoding).
	for _, s := range secs {
		name := sectionName(s.section, s.vantage)
		mid := int(s.off) + int(s.clen)/2
		if got := loadMutated(t, "flip in "+name, flip(mid)); got != name {
			t.Errorf("flip in %s blamed %q", name, got)
		}
	}
	// A flip in the header or the index is blamed on that region.
	if got := loadMutated(t, "flip in header", flip(20)); got != "header" {
		t.Errorf("header flip blamed %q", got)
	}
	indexOff := int(secs[len(secs)-1].off + secs[len(secs)-1].clen)
	if got := loadMutated(t, "flip in index", flip(indexOff+2)); got != "index" {
		t.Errorf("index flip blamed %q", got)
	}
	if got := loadMutated(t, "flip in index checksum", flip(len(data)-2)); got != "index" {
		t.Errorf("index checksum flip blamed %q", got)
	}
}

func TestBinaryTrailingGarbageDetected(t *testing.T) {
	data, _ := goldenSnapshot(t, false)
	loadMutated(t, "trailing garbage", append(append([]byte(nil), data...), 0xAA, 0xBB, 0xCC))
}

func TestBinaryWrongMagicAndVersion(t *testing.T) {
	data, _ := goldenSnapshot(t, false)
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if got := loadMutated(t, "bad magic", bad); got != "header" {
		t.Errorf("bad magic blamed %q", got)
	}
	// A future format version must be refused up front, even with a
	// valid header checksum.
	future := append([]byte(nil), data...)
	future[8] = 99
	rehashBinHeader(future)
	if got := loadMutated(t, "future version", future); got != "header" {
		t.Errorf("future version blamed %q", got)
	}
}

// rehashBinHeader recomputes the header checksum after a test mutates
// header fields, so the mutation itself (not the checksum) is what
// the loader has to catch.
func rehashBinHeader(data []byte) {
	binary.LittleEndian.PutUint32(data[48:], crc32.Checksum(data[:48], binCRCTable))
}

func TestBinaryIndexOffsetOutOfRange(t *testing.T) {
	// Regression: indexOff values near 2^64 made the old bounds check
	// (indexOff+4 > len) wrap around, so a CRC-valid header sailed
	// through and the index slice panicked. Every out-of-range offset
	// — wraparound-adjacent or merely past the file — must be a typed
	// index error.
	data, _ := goldenSnapshot(t, false)
	for _, off := range []uint64{
		^uint64(0), ^uint64(0) - 3, ^uint64(0) - 4,
		uint64(len(data)) - 3, uint64(len(data)), uint64(len(data)) + 100,
		0, binHeaderSize - 1,
	} {
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(bad[40:48], off)
		rehashBinHeader(bad)
		if got := loadMutated(t, fmt.Sprintf("index offset %d", off), bad); got != "index" {
			t.Errorf("index offset %d blamed %q", off, got)
		}
	}
	// The minimal reproducer: a bare 52-byte crafted header, nothing
	// after it.
	for _, hdr := range craftedHeaderSeeds() {
		loadMutated(t, "crafted header-only file", hdr)
	}
}

func TestBinaryImplausibleHeaderRanges(t *testing.T) {
	data, _ := goldenSnapshot(t, false)
	// Claim 2^50 dense main ids with a valid checksum: the loader must
	// refuse rather than attempt a dense allocation.
	bad := append([]byte(nil), data...)
	bad[22] = 0x04 // mainIDs byte 6 -> 1<<50
	rehashBinHeader(bad)
	if got := loadMutated(t, "huge main range", bad); got != "header" {
		t.Errorf("huge main range blamed %q", got)
	}
}

// TestBinaryOutOfOrderCountIsCorrupt: the DNS section keeps a per-site
// out-of-order row count that is always 0; a snapshot whose count is
// not — carrying a duplicate or an earlier round, at a dense id or an
// overflow id — is corrupt in that section. The same snapshot with the
// count at 0 loads. A paths section whose keys repeat or descend is
// corrupt too, as is a samples or paths section holding a row at
// maxRound, a round the writers refuse.
func TestBinaryOutOfOrderCountIsCorrupt(t *testing.T) {
	db := binarySampleDB()
	snapshot := func(section byte, payload []byte) []byte {
		path := filepath.Join(t.TempDir(), "crafted"+BinaryExt)
		err := saveFrames(path, BinaryOptions{}, func(f *os.File, opt BinaryOptions) error {
			fw, err := newFrameWriter(f, opt)
			if err != nil {
				return err
			}
			var w wbuf
			n := db.appendShardSites(&w, 0, snapAllSites)
			if err := fw.section(ShardSites, "", w.b, n); err != nil {
				return err
			}
			if err := fw.section(section, "penn", payload, 1); err != nil {
				return err
			}
			return fw.finish(snapshotFile, db.res)
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, c := range orderCases() {
		loaded, err := decodeBinarySnapshot("crafted"+BinaryExt, snapshot(ShardDNS, c.dnsSection(0, 0)))
		if err != nil {
			t.Fatalf("%s: with a zero count: %v", c.name, err)
		}
		if rows := loaded.DNS("penn"); len(rows) != 5 || rows[0].Site != c.row.Site {
			t.Fatalf("%s: with a zero count the snapshot holds %+v", c.name, rows)
		}
		if got := loadMutated(t, c.name, snapshot(ShardDNS, c.dnsSection(0, 1))); got != "dns/penn" {
			t.Errorf("%s: blamed %q, want dns/penn", c.name, got)
		}
	}
	for name, keys := range map[string][]famDstKey{
		"repeated":   {{topo.V4, 9}, {topo.V4, 9}},
		"descending": {{topo.V6, 4}, {topo.V4, 9}},
	} {
		var w wbuf
		w.uvarint(uint64(len(keys)))
		for i, k := range keys {
			w.byteVal(byte(k.fam))
			w.uvarint(uint64(k.dst))
			w.pathSnaps([]PathSnapshot{{Round: i, Path: []int{2, k.dst}}})
		}
		_, err := decodeBinarySnapshot("crafted"+BinaryExt, snapshot(snapPaths, w.b))
		var ce *CorruptSnapshotError
		if !errors.As(err, &ce) || ce.Section != "paths/penn" || !strings.Contains(err.Error(), "keys out of order") {
			t.Errorf("%s path keys: %v, want paths/penn corrupt with keys out of order", name, err)
		}
	}
	for _, s := range pastLastRoundSections() {
		if got, want := loadMutated(t, s.name, snapshot(s.section, s.payload)), sectionName(s.section, "penn"); got != want {
			t.Errorf("%s: blamed %q, want %q", s.name, got, want)
		}
	}
}
