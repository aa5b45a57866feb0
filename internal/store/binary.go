package store

// Binary snapshot format: the whole database as one checksummed,
// versioned file whose section payloads are the same delta encoding
// the shard wire ships (shardwire.go) — saving is a direct dump of
// the columnar tables, loading re-lands rows without re-deriving any
// encoding. CSV (csv.go) remains the interchange and golden format;
// this is the checkpoint/resume format, where persistence cost is on
// the hot path.
//
// Layout ("frame layout" in DESIGN.md § Snapshot formats):
//
//	header (52 bytes, fixed)
//	  [0:8)   magic "v6webDB\0"
//	  [8:12)  u32 format version
//	  [12:16) u32 flags (bit 0: some section is flate-compressed)
//	  [16:24) u64 reserved main ids
//	  [24:32) u64 reserved extended base
//	  [32:40) u64 reserved extended ids
//	  [40:48) u64 index offset
//	  [48:52) u32 crc32c of header[0:48)
//	frames — one per (section, vantage), contiguous, in save order:
//	  sites first, then per vantage (sorted): dns, samples, paths
//	index (at index offset, crc32c-terminated)
//	  config fingerprint (uvarint length + bytes)
//	  section count, then per section:
//	    section id byte · vantage (uvarint length + bytes) ·
//	    compressed byte · entry count uvarint ·
//	    u64 offset · u64 stored length · u64 uncompressed length ·
//	    u32 crc32c of the stored bytes
//	  u32 crc32c of the index bytes
//
// Every failure mode — torn write, truncation, bit flip, implausible
// header, undecodable payload — surfaces as a *CorruptSnapshotError
// naming the damaged part, never a panic and never ErrNoDatabase
// (which is reserved for "nothing saved at all"). Decoding arbitrary
// bytes allocates O(input) memory (with a constant factor bounded by
// flate's ~1032:1 expansion limit): element counts are checked
// against remaining bytes (rbuf.count), claimed id ranges are only
// reserved when plausible for the stored bytes actually present, and
// flate output is capped at the index's claimed uncompressed size,
// itself plausibility-checked against the stored size.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"v6web/internal/alexa"
	"v6web/internal/topo"
)

// BinaryExt is the file extension of binary snapshots.
const BinaryExt = ".v6db"

// snapPaths is the path-table section, which exists only in snapshot
// files (shards never ship paths; the coordinator measures them).
const snapPaths byte = 4

// snapAllSites is the exclusive site-id bound snapshot sections pass
// to the shard codec: unlike a shard frame, a snapshot section covers
// the whole id space.
const snapAllSites = alexa.SiteID(1) << 62

// binVersion is the current snapshot format version. Bumping it
// requires a matching entry in binSectionDecoders; TestBinaryVersionDecoders
// pins that invariant.
const binVersion uint32 = 1

const (
	binHeaderSize     = 52
	binFlagCompressed = uint32(1) << 0
	// flateMaxRatio bounds how much a flate stream can legitimately
	// expand (the format's hard limit is ~1032:1), so a corrupt index
	// cannot make the loader allocate unboundedly.
	flateMaxRatio = 1032
	// binMaxIDs bounds the header's claimed dense ranges far above the
	// paper's 5M-site population but below anything that could
	// overflow the int64 id arithmetic.
	binMaxIDs = uint64(1) << 44
)

var binMagic = [8]byte{'v', '6', 'w', 'e', 'b', 'D', 'B', 0}

var binCRCTable = crc32.MakeTable(crc32.Castagnoli)

// binSectionDecoders maps every snapshot format version this build
// can read to its section decoder. Readers keep decoders for old
// versions; a version bump without a new entry here fails
// TestBinaryVersionDecoders before it can fail in the field.
var binSectionDecoders = map[uint32]func(db *DB, section byte, v Vantage, payload []byte) error{
	1: decodeSectionV1,
}

func supportedBinVersions() string {
	vs := make([]int, 0, len(binSectionDecoders))
	for v := range binSectionDecoders {
		vs = append(vs, int(v))
	}
	sort.Ints(vs)
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// CorruptSnapshotError reports a binary snapshot file that exists but
// cannot be decoded: a failed checksum, a truncated or torn write, an
// implausible header, or a payload that does not parse. It is
// deliberately distinct from ErrNoDatabase — the file is there, its
// contents are wrong — so resume logic can tell "nothing saved yet"
// from "the save is damaged".
type CorruptSnapshotError struct {
	Path    string // the snapshot file
	Section string // "header", "index", or a section name like "dns/penn"
	Err     error
}

func (e *CorruptSnapshotError) Error() string {
	return fmt.Sprintf("store: corrupt snapshot %s: %s: %v", e.Path, e.Section, e.Err)
}

func (e *CorruptSnapshotError) Unwrap() error { return e.Err }

func corrupt(path, section string, err error) error {
	return &CorruptSnapshotError{Path: path, Section: section, Err: err}
}

func corruptf(path, section, format string, args ...any) error {
	return corrupt(path, section, fmt.Errorf(format, args...))
}

// sectionName labels a (section, vantage) pair in corruption errors.
func sectionName(section byte, v Vantage) string {
	var name string
	switch section {
	case ShardSites:
		return "sites"
	case ShardDNS:
		name = "dns"
	case ShardSamples:
		name = "samples"
	case snapPaths:
		name = "paths"
	case segState:
		return "state"
	default:
		return fmt.Sprintf("section-%d", section)
	}
	if v == "" {
		return name
	}
	return name + "/" + string(v)
}

// Fixed-width little-endian u32, used by the header and index only
// (section payloads stick to the shard wire's uvarint/u64 vocabulary).
func (w *wbuf) u32(x uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, x) }

func (r *rbuf) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.fail("store: shard payload: truncated u32")
		return 0
	}
	x := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return x
}

// BinaryOptions configure SaveBinary.
type BinaryOptions struct {
	Compress    bool      // flate-compress sections when it shrinks them
	Fingerprint string    // config fingerprint stamped into the index (may be empty)
	Hook        FaultHook // optional fault-injection hook at the commit points
}

// binSection is one index entry: where a (section, vantage) frame
// lives and how to verify it.
type binSection struct {
	section    byte
	vantage    Vantage
	compressed bool
	entries    uint64
	off        uint64 // frame start in the file
	clen       uint64 // stored (possibly compressed) length
	ulen       uint64 // uncompressed payload length
	crc        uint32 // crc32c of the stored bytes
}

// binHeader is the decoded fixed header.
type binHeader struct {
	version  uint32
	flags    uint32
	mainIDs  uint64
	extBase  uint64
	extIDs   uint64
	indexOff uint64
}

// SaveBinary writes the database as one binary snapshot file. The
// write is staged to path+".tmp", fsynced, committed by atomic
// rename, and the parent directory is fsynced, so a crash mid-save
// never damages an existing snapshot and a returned nil means the
// snapshot survives power loss. Equal databases serialize to
// byte-identical files: sections follow the tables' canonical
// iteration order and flate is deterministic.
func (db *DB) SaveBinary(path string, opt BinaryOptions) error {
	return saveFrames(path, opt, db.writeBinary)
}

// saveFrames stages a container file written by write to path+".tmp",
// fsyncs it, commits it by atomic rename and fsyncs the parent
// directory, consulting opt.Hook at each commit point.
func saveFrames(path string, opt BinaryOptions, write func(*os.File, BinaryOptions) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f, opt); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if opt.Hook != nil {
		if err := opt.Hook("rename", path); err != nil {
			os.Remove(tmp)
			return err
		}
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return err
	}
	if opt.Hook != nil {
		// Post-commit crash point: the snapshot is durable, the caller
		// is told otherwise.
		if err := opt.Hook("crash", path); err != nil {
			return err
		}
	}
	return nil
}

// frameWriter lays out one container file — a header placeholder,
// the section frames, the index, then the real header — for
// snapshots and checkpoint segments (chain.go) alike.
type frameWriter struct {
	f             *os.File
	opt           BinaryOptions
	off           uint64
	anyCompressed bool
	secs          []binSection
}

func newFrameWriter(f *os.File, opt BinaryOptions) (*frameWriter, error) {
	// Header placeholder; the real header is written last, once the
	// index offset is known.
	if _, err := f.Write(make([]byte, binHeaderSize)); err != nil {
		return nil, err
	}
	return &frameWriter{f: f, opt: opt, off: binHeaderSize}, nil
}

// section writes one (section, vantage) frame; a section without
// entries is skipped.
func (fw *frameWriter) section(section byte, v Vantage, payload []byte, entries int) error {
	if entries == 0 {
		return nil
	}
	stored, compressed := payload, false
	if fw.opt.Compress {
		var zbuf bytes.Buffer
		zw, err := flate.NewWriter(&zbuf, flate.BestSpeed)
		if err != nil {
			return err
		}
		if _, err := zw.Write(payload); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		if zbuf.Len() < len(payload) {
			stored, compressed = zbuf.Bytes(), true
			fw.anyCompressed = true
		}
	}
	if _, err := fw.f.Write(stored); err != nil {
		return err
	}
	fw.secs = append(fw.secs, binSection{
		section: section, vantage: v, compressed: compressed,
		entries: uint64(entries), off: fw.off, clen: uint64(len(stored)),
		ulen: uint64(len(payload)), crc: crc32.Checksum(stored, binCRCTable),
	})
	fw.off += uint64(len(stored))
	return nil
}

// finish writes the index and the header (with magic and the
// reservation res) and fsyncs the file.
func (fw *frameWriter) finish(magic [8]byte, res reservation) error {
	opt := fw.opt
	var idx wbuf
	idx.uvarint(uint64(len(opt.Fingerprint)))
	idx.bytes([]byte(opt.Fingerprint))
	idx.uvarint(uint64(len(fw.secs)))
	for _, s := range fw.secs {
		idx.byteVal(s.section)
		idx.uvarint(uint64(len(s.vantage)))
		idx.bytes([]byte(s.vantage))
		if s.compressed {
			idx.byteVal(1)
		} else {
			idx.byteVal(0)
		}
		idx.uvarint(s.entries)
		idx.u64(s.off)
		idx.u64(s.clen)
		idx.u64(s.ulen)
		idx.u32(s.crc)
	}
	if opt.Hook != nil {
		// Mid-stream fault point: the section frames are on disk but
		// the index is not — an error here is a short write, leaving a
		// truncated temp file for the caller to discard.
		if err := opt.Hook("write", fw.f.Name()); err != nil {
			return err
		}
	}

	idx.u32(crc32.Checksum(idx.b[:len(idx.b)], binCRCTable))
	if _, err := fw.f.Write(idx.b); err != nil {
		return err
	}

	hdr := make([]byte, binHeaderSize)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], binVersion)
	flags := uint32(0)
	if fw.anyCompressed {
		flags |= binFlagCompressed
	}
	binary.LittleEndian.PutUint32(hdr[12:], flags)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(res.main))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(res.extBase))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(res.ext))
	binary.LittleEndian.PutUint64(hdr[40:], fw.off)
	binary.LittleEndian.PutUint32(hdr[48:], crc32.Checksum(hdr[:48], binCRCTable))
	if _, err := fw.f.WriteAt(hdr, 0); err != nil {
		return err
	}
	if opt.Hook != nil {
		if err := opt.Hook("sync", fw.f.Name()); err != nil {
			return err
		}
	}
	return fw.f.Sync()
}

func (db *DB) writeBinary(f *os.File, opt BinaryOptions) error {
	fw, err := newFrameWriter(f, opt)
	if err != nil {
		return err
	}
	var w wbuf
	nSites := db.appendSnapSites(&w)
	if err := fw.section(ShardSites, "", w.b, nSites); err != nil {
		return err
	}
	for _, v := range db.Vantages() {
		w = wbuf{}
		nDNS, err := db.appendShardDNS(&w, v, 0, snapAllSites)
		if err != nil {
			return err
		}
		if err := fw.section(ShardDNS, v, w.b, nDNS); err != nil {
			return err
		}
		w = wbuf{}
		nSamples := db.appendShardSamples(&w, v, 0, snapAllSites)
		if err := fw.section(ShardSamples, v, w.b, nSamples); err != nil {
			return err
		}
		w = wbuf{}
		nPaths := db.appendSnapPaths(&w, v)
		if err := fw.section(snapPaths, v, w.b, nPaths); err != nil {
			return err
		}
	}
	return fw.finish(binMagic, db.res)
}

// LoadBinary reads a snapshot written by SaveBinary, memory-mapping
// the file when the platform allows. A missing file wraps
// ErrNoDatabase; a file whose bytes were read but do not decode is a
// *CorruptSnapshotError naming the damaged part. I/O failures that
// prevent reading the bytes at all (permission denied, a directory
// at the path) are neither — they are returned as the OS reported
// them, since the snapshot's state on disk is unknown.
func LoadBinary(path string) (*DB, error) {
	data, release, err := mapSnapshotFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("store: %w: %s", ErrNoDatabase, path)
		}
		return nil, err
	}
	defer release()
	return decodeBinarySnapshot(path, data)
}

// readSnapshotFile is the buffered-read fallback behind mapSnapshotFile.
func readSnapshotFile(path string) ([]byte, func(), error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return data, func() {}, nil
}

func decodeBinarySnapshot(path string, data []byte) (*DB, error) {
	h, secs, _, err := parseBinSnapshot(path, data)
	if err != nil {
		return nil, err
	}
	decode := binSectionDecoders[h.version]

	db := NewDB()
	// Reserve the claimed dense ranges only when they are plausible
	// for the data present (every reserved-and-populated site costs
	// several payload bytes); an implausible claim — a corrupt header,
	// or a shard's range-restricted checkpoint — decodes into the
	// overflow maps instead, which is slower but correct and, for the
	// corrupt case, bounds allocation by O(input bytes). The plausibility
	// check is against *stored* (clen) bytes, which are bytes actually
	// present in the file: the index's claimed uncompressed sizes are
	// unverified at this point, so a crafted flate section could claim
	// flateMaxRatio times its stored size and inflate the reservation
	// with it.
	totalStored := uint64(0)
	for _, s := range secs {
		totalStored += s.clen
	}
	if ids := h.mainIDs + h.extIDs; ids > 0 && ids <= 2*totalStored {
		db.Reserve(int(h.mainIDs), alexa.SiteID(h.extBase), int(h.extIDs))
	}

	for _, s := range secs {
		payload, err := sectionPayload(path, data, s)
		if err != nil {
			return nil, err
		}
		if err := decode(db, s.section, s.vantage, payload); err != nil {
			return nil, corrupt(path, sectionName(s.section, s.vantage), err)
		}
	}
	return db, nil
}

// sectionPayload checksums one indexed frame of data and returns its
// payload, inflated when stored compressed.
func sectionPayload(path string, data []byte, s binSection) ([]byte, error) {
	name := sectionName(s.section, s.vantage)
	stored := data[s.off : s.off+s.clen]
	if got := crc32.Checksum(stored, binCRCTable); got != s.crc {
		return nil, corruptf(path, name, "checksum mismatch (stored %08x, computed %08x) — bit flip or torn write", s.crc, got)
	}
	if !s.compressed {
		return stored, nil
	}
	payload, err := inflateSection(stored, s.ulen)
	if err != nil {
		return nil, corrupt(path, name, err)
	}
	return payload, nil
}

// parseBinSnapshot validates a snapshot's header and index without
// touching any section payload — O(sections), which is what makes
// opening a paper-scale snapshot for inspection near-free.
func parseBinSnapshot(path string, data []byte) (binHeader, []binSection, string, error) {
	return parseFrames(path, data, binMagic)
}

// parseFrames is parseBinSnapshot for a container with the given
// magic: binMagic for snapshots, segMagic for checkpoint segments.
func parseFrames(path string, data []byte, magic [8]byte) (binHeader, []binSection, string, error) {
	var h binHeader
	if len(data) < binHeaderSize {
		return h, nil, "", corruptf(path, "header", "file is %d bytes; a snapshot header is %d", len(data), binHeaderSize)
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return h, nil, "", corruptf(path, "header", "bad magic %q", data[:8])
	}
	if got, want := binary.LittleEndian.Uint32(data[48:52]), crc32.Checksum(data[:48], binCRCTable); got != want {
		return h, nil, "", corruptf(path, "header", "checksum mismatch (stored %08x, computed %08x)", got, want)
	}
	h.version = binary.LittleEndian.Uint32(data[8:12])
	if _, ok := binSectionDecoders[h.version]; !ok {
		return h, nil, "", corruptf(path, "header", "unsupported format version %d (this build reads %s)", h.version, supportedBinVersions())
	}
	h.flags = binary.LittleEndian.Uint32(data[12:16])
	if extra := h.flags &^ binFlagCompressed; extra != 0 {
		return h, nil, "", corruptf(path, "header", "unknown flag bits %#x", extra)
	}
	h.mainIDs = binary.LittleEndian.Uint64(data[16:24])
	h.extBase = binary.LittleEndian.Uint64(data[24:32])
	h.extIDs = binary.LittleEndian.Uint64(data[32:40])
	h.indexOff = binary.LittleEndian.Uint64(data[40:48])
	if h.mainIDs > binMaxIDs || h.extIDs > binMaxIDs || h.extBase > uint64(1)<<60 {
		return h, nil, "", corruptf(path, "header", "implausible id ranges (main %d, ext base %d, ext %d)", h.mainIDs, h.extBase, h.extIDs)
	}
	if h.extIDs > 0 && h.extBase&(shards-1) != 0 {
		return h, nil, "", corruptf(path, "header", "extended base %d is not a multiple of the shard count", h.extBase)
	}
	// Compare without adding to indexOff: len(data) >= binHeaderSize is
	// already established, so the subtraction cannot underflow, while
	// indexOff+4 would wrap for claimed offsets near 2^64 and let a
	// CRC-valid header slice out of bounds.
	if h.indexOff < binHeaderSize || h.indexOff > uint64(len(data))-4 {
		return h, nil, "", corruptf(path, "index", "index offset %d outside the %d-byte file", h.indexOff, len(data))
	}
	idxBytes := data[h.indexOff : len(data)-4]
	if got, want := binary.LittleEndian.Uint32(data[len(data)-4:]), crc32.Checksum(idxBytes, binCRCTable); got != want {
		return h, nil, "", corruptf(path, "index", "checksum mismatch (stored %08x, computed %08x)", got, want)
	}
	secs, fingerprint, err := parseBinIndex(path, idxBytes, h.indexOff, magic == segMagic)
	if err != nil {
		return h, nil, "", err
	}
	return h, secs, fingerprint, nil
}

func parseBinIndex(path string, b []byte, indexOff uint64, segment bool) ([]binSection, string, error) {
	r := &rbuf{b: b}
	fpLen := r.count()
	fingerprint := ""
	if r.err == nil && fpLen > 0 {
		fingerprint = string(r.b[:fpLen])
		r.b = r.b[fpLen:]
	}
	n := r.count()
	secs := make([]binSection, 0, n)
	seen := make(map[mergeKey]bool, n)
	next := uint64(binHeaderSize)
	for i := uint64(0); i < n && r.err == nil; i++ {
		var s binSection
		s.section = r.byteVal()
		vlen := r.count()
		if r.err != nil {
			break
		}
		s.vantage = Vantage(r.b[:vlen])
		r.b = r.b[vlen:]
		switch c := r.byteVal(); c {
		case 0:
		case 1:
			s.compressed = true
		default:
			r.fail("bad compression flag %d", c)
		}
		s.entries = r.uvarint()
		s.off = r.u64()
		s.clen = r.u64()
		s.ulen = r.u64()
		s.crc = r.u32()
		if r.err != nil {
			break
		}
		name := sectionName(s.section, s.vantage)
		switch {
		case s.section == ShardSites, s.section == ShardDNS, s.section == ShardSamples, s.section == snapPaths:
		case segment && s.section == segState:
		default:
			return nil, "", corruptf(path, "index", "unknown section id %d", s.section)
		}
		if seen[mergeKey{s.section, s.vantage}] {
			return nil, "", corruptf(path, "index", "duplicate section %s", name)
		}
		seen[mergeKey{s.section, s.vantage}] = true
		if s.off != next {
			return nil, "", corruptf(path, name, "frame at offset %d, expected %d (torn or reordered write)", s.off, next)
		}
		if s.clen == 0 || s.off+s.clen < s.off || s.off+s.clen > indexOff {
			return nil, "", corruptf(path, name, "frame [%d,+%d) outside the data region [%d,%d)", s.off, s.clen, binHeaderSize, indexOff)
		}
		if s.compressed {
			if s.ulen > s.clen*flateMaxRatio+64 {
				return nil, "", corruptf(path, name, "claimed uncompressed size %d implausible for %d stored bytes", s.ulen, s.clen)
			}
		} else if s.ulen != s.clen {
			return nil, "", corruptf(path, name, "stored size %d != payload size %d in an uncompressed frame", s.clen, s.ulen)
		}
		if s.entries > s.ulen {
			return nil, "", corruptf(path, name, "entry count %d exceeds payload bytes %d", s.entries, s.ulen)
		}
		next = s.off + s.clen
		secs = append(secs, s)
	}
	if r.err != nil {
		return nil, "", corrupt(path, "index", r.err)
	}
	if len(r.b) != 0 {
		return nil, "", corruptf(path, "index", "%d trailing bytes", len(r.b))
	}
	if next != indexOff {
		return nil, "", corruptf(path, "index", "data region ends at %d but the index starts at %d", next, indexOff)
	}
	return secs, fingerprint, nil
}

// inflateSection decompresses a stored frame, never allocating more
// than the index's (already plausibility-checked) claimed size.
func inflateSection(stored []byte, ulen uint64) ([]byte, error) {
	zr := flate.NewReader(bytes.NewReader(stored))
	defer zr.Close()
	var out bytes.Buffer
	if ulen < 1<<20 {
		out.Grow(int(ulen))
	}
	n, err := io.Copy(&out, io.LimitReader(zr, int64(ulen)+1))
	if err != nil {
		return nil, fmt.Errorf("inflate: %w", err)
	}
	if uint64(n) != ulen {
		return nil, fmt.Errorf("inflate: stream yields %d bytes, index claims %d", n, ulen)
	}
	return out.Bytes(), nil
}

// decodeSectionV1 decodes one version-1 section payload into db. DNS
// and samples reuse the shard-merge decoders over the full id range;
// sites and paths have snapshot-only codecs.
func decodeSectionV1(db *DB, section byte, v Vantage, payload []byte) error {
	r := &rbuf{b: payload}
	var err error
	switch section {
	case ShardSites:
		err = db.mergeShardSites(r, 0, snapAllSites)
	case ShardDNS:
		err = db.mergeShardDNS(r, v, 0, snapAllSites)
	case ShardSamples:
		err = db.mergeShardSamples(r, v, 0, snapAllSites)
	case snapPaths:
		err = db.decodeSnapPaths(r, v)
	default:
		return fmt.Errorf("unknown section id %d", section)
	}
	if err == nil {
		err = r.err
	}
	if err == nil && len(r.b) != 0 {
		err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	return err
}

// appendSnapSites encodes every site row — dense ranges and overflow
// ids alike — in ascending id order, using the shard-wire row format
// with id deltas against the previous row (base -1). Decoded by
// mergeShardSites over the full id range. Canonical hosts encode as
// length zero straight from the columns; only hostOver exceptions and
// overflow rows are compared against the derived name.
func (db *DB) appendSnapSites(w *wbuf) int {
	var rows wbuf
	n := 0
	prev := alexa.SiteID(-1)
	db.forEachStoredSite(func(r SiteRow, derived bool) {
		rows.siteRow(prev, r, derived)
		prev = r.Site
		n++
	})
	w.uvarint(uint64(n))
	w.bytes(rows.b)
	return n
}

// siteRow encodes one stored site row (see storedRow) in the
// shard-wire row format, its id as a delta against prev.
func (w *wbuf) siteRow(prev alexa.SiteID, r SiteRow, derived bool) {
	w.uvarint(uint64(r.Site - prev))
	w.uvarint(uint64(r.FirstRank))
	w.uvarint(uint64(r.V4AS + 1))
	w.uvarint(uint64(r.V6AS + 1))
	if derived || r.Host == alexa.HostName(r.Site) {
		w.uvarint(0)
	} else {
		w.uvarint(uint64(len(r.Host)))
		w.bytes([]byte(r.Host))
	}
}

// appendSnapPaths encodes one vantage's path table: per (family, dst)
// key in the canonical sorted order, the change-collapsed snapshot
// list as (round, path length, AS indices).
func (db *DB) appendSnapPaths(w *wbuf, v Vantage) int {
	t := db.lookup(v)
	if t == nil {
		w.uvarint(0)
		return 0
	}
	t.pathMu.Lock()
	defer t.pathMu.Unlock()
	keys := make([]famDstKey, 0, len(t.paths))
	for k := range t.paths {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.fam != b.fam {
			return a.fam < b.fam
		}
		return a.dst < b.dst
	})
	var rows wbuf
	n := 0
	for _, k := range keys {
		snaps := t.paths[k]
		if len(snaps) == 0 {
			continue
		}
		rows.byteVal(byte(k.fam))
		rows.uvarint(uint64(k.dst))
		rows.pathSnaps(snaps)
		n++
	}
	w.uvarint(uint64(n))
	w.bytes(rows.b)
	return n
}

// pathSnaps encodes a snapshot list: its length, then per snapshot
// the round, path length and AS indices.
func (w *wbuf) pathSnaps(snaps []PathSnapshot) {
	w.uvarint(uint64(len(snaps)))
	for _, snap := range snaps {
		w.uvarint(uint64(snap.Round))
		w.uvarint(uint64(len(snap.Path)))
		for _, as := range snap.Path {
			w.uvarint(uint64(as))
		}
	}
}

// decodeSnapPaths replays a paths section through AddPath. Saved
// snapshot lists are already change-collapsed, so the replay stores
// them exactly; keys must ascend in the canonical order, or a corrupt
// payload could silently merge duplicate keys through the collapse
// rule.
func (db *DB) decodeSnapPaths(r *rbuf, v Vantage) error {
	n := r.count()
	var prevFam topo.Family
	prevDst := -1
	var path []int
	for i := uint64(0); i < n && r.err == nil; i++ {
		fam := topo.Family(r.byteVal())
		dst := r.uvarint()
		nSnaps := r.count()
		if r.err != nil {
			break
		}
		if fam != topo.V4 && fam != topo.V6 {
			r.fail("store: snapshot paths: unknown family %d", fam)
			break
		}
		if dst > math.MaxInt32 {
			r.fail("store: snapshot paths: destination %d out of range", dst)
			break
		}
		if i > 0 && (fam < prevFam || (fam == prevFam && int(dst) <= prevDst)) {
			r.fail("store: snapshot paths: keys out of order at (%d,%d)", fam, dst)
			break
		}
		prevFam, prevDst = fam, int(dst)
		if nSnaps == 0 {
			r.fail("store: snapshot paths: empty snapshot list for (%d,%d)", fam, dst)
			break
		}
		for k := uint64(0); k < nSnaps && r.err == nil; k++ {
			round := r.uvarint()
			plen := r.count()
			if r.err != nil {
				break
			}
			if round > maxRound {
				r.fail("store: snapshot paths: round %d out of range", round)
				break
			}
			path = path[:0]
			for j := uint64(0); j < plen && r.err == nil; j++ {
				as := r.uvarint()
				if as > math.MaxInt32 {
					r.fail("store: snapshot paths: AS index %d out of range", as)
					break
				}
				path = append(path, int(as))
			}
			if r.err != nil {
				break
			}
			db.AddPath(v, fam, int(dst), int(round), path)
		}
	}
	return r.err
}

// BinaryInfo is the header/index summary of a binary snapshot, read
// without decoding any section payload.
type BinaryInfo struct {
	Version     uint32
	Fingerprint string
	MainIDs     int
	ExtBase     alexa.SiteID
	ExtIDs      int
	Sections    int
	DataBytes   int64 // stored section bytes, after compression
}

// ReadBinaryInfo validates and summarizes a snapshot's header and
// index — O(sections), regardless of database size. Errors follow
// the LoadBinary contract: ErrNoDatabase for a missing file,
// *CorruptSnapshotError for undecodable bytes, raw OS errors when
// the file could not be read.
func ReadBinaryInfo(path string) (BinaryInfo, error) {
	data, release, err := mapSnapshotFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return BinaryInfo{}, fmt.Errorf("store: %w: %s", ErrNoDatabase, path)
		}
		return BinaryInfo{}, err
	}
	defer release()
	h, secs, fingerprint, err := parseBinSnapshot(path, data)
	if err != nil {
		return BinaryInfo{}, err
	}
	info := BinaryInfo{
		Version:     h.version,
		Fingerprint: fingerprint,
		MainIDs:     int(h.mainIDs),
		ExtBase:     alexa.SiteID(h.extBase),
		ExtIDs:      int(h.extIDs),
		Sections:    len(secs),
	}
	for _, s := range secs {
		info.DataBytes += int64(s.clen)
	}
	return info, nil
}
