package store

// Binary snapshot format: the whole database as one checksummed,
// versioned container file whose section payloads are the section
// codec's (shardwire.go) from round 0 — saving is a direct dump of the
// columnar tables, loading re-lands rows without re-deriving any
// encoding. A checkpoint segment (chain.go) is the same container
// with its own magic and version, holding the same sections from its
// mark round. It is the one format the program reads back: a
// checkpoint and a finished campaign's product are both snapshots,
// and CSV (csv.go) is only an export.
//
// Layout ("frame layout" in DESIGN.md § Snapshot formats):
//
//	header (52 bytes, fixed)
//	  [0:8)   magic "v6webDB\0" (a segment: "v6webSG\0")
//	  [8:12)  u32 format version (a snapshot: 1, a segment: 3)
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
// header, a version other than the container's, undecodable payload —
// surfaces as a *CorruptSnapshotError naming the damaged part, never a
// panic and never ErrNoDatabase (which is reserved for "nothing saved
// at all"). Decoding arbitrary bytes allocates O(input) memory (with a
// constant factor bounded by flate's ~1032:1 expansion limit): element
// counts are checked against remaining bytes (rbuf.count), claimed id
// ranges are only reserved when plausible for the stored bytes
// actually present, and flate output is capped at the index's claimed
// uncompressed size, itself plausibility-checked against the stored
// size.

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"v6web/internal/alexa"
)

// BinaryExt is the file extension of binary snapshots.
const BinaryExt = ".v6db"

// snapPaths is the path-table section, which exists only in snapshot
// and segment files (shards never ship paths; the coordinator derives
// them).
const snapPaths byte = 4

// snapAllSites is the exclusive site-id bound snapshot and segment
// sections pass to the section codec: unlike a shard frame, they cover
// the whole id space.
const snapAllSites = alexa.SiteID(1) << 62

// container is a kind of container file: its magic and the one format
// version this build writes and reads.
type container struct {
	magic   [8]byte
	version uint32
}

// The container kinds: whole snapshots, and checkpoint segments
// (chain.go). A segment that an earlier build wrote carries version 1
// or 2 and is refused, not misparsed.
var (
	snapshotFile = container{[8]byte{'v', '6', 'w', 'e', 'b', 'D', 'B', 0}, 1}
	segmentFile  = container{[8]byte{'v', '6', 'w', 'e', 'b', 'S', 'G', 0}, 3}
)

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

var binCRCTable = crc32.MakeTable(crc32.Castagnoli)

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
func (w *wbuf) u32(x uint32) {
	w.room(4)
	w.b = binary.LittleEndian.AppendUint32(w.b, x)
}

func (r *rbuf) u32() uint32 {
	if len(r.b) < 4 {
		r.latch(errTruncU32)
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
// snapshots and checkpoint segments (chain.go) alike. It keeps one
// payload buffer and one flate writer across its sections and
// compresses each frame straight into the file, so a save holds no
// more than its largest section's payload.
type frameWriter struct {
	f             *os.File
	opt           BinaryOptions
	off           uint64
	anyCompressed bool
	secs          []binSection
	payload       wbuf
	out           *bufio.Writer // between zw and f
	sink          frameSink     // zw's output, counted on its way to out
	zw            *flate.Writer
}

// frameSink counts and checksums a compressed frame's bytes on their
// way to the file.
type frameSink struct {
	w   io.Writer
	n   uint64
	crc uint32
}

func (s *frameSink) Write(p []byte) (int, error) {
	n, err := s.w.Write(p)
	s.n += uint64(n)
	s.crc = crc32.Update(s.crc, binCRCTable, p[:n])
	return n, err
}

func newFrameWriter(f *os.File, opt BinaryOptions) (*frameWriter, error) {
	// Header placeholder; the real header is written last, once the
	// index offset is known.
	if _, err := f.Write(make([]byte, binHeaderSize)); err != nil {
		return nil, err
	}
	return &frameWriter{f: f, opt: opt, off: binHeaderSize}, nil
}

// encode writes the (section, vantage) frame whose payload enc
// appends to the writer's emptied payload buffer, returning the
// section's entry count.
func (fw *frameWriter) encode(section byte, v Vantage, enc func(w *wbuf) int) error {
	fw.payload.b = fw.payload.b[:0]
	n := enc(&fw.payload)
	return fw.section(section, v, fw.payload.b, n)
}

// section writes one (section, vantage) frame; a section without
// entries is skipped. With Compress the frame is stored compressed
// when that shrinks it; otherwise the compressed bytes already written
// are cut off and the payload stored as it is.
func (fw *frameWriter) section(section byte, v Vantage, payload []byte, entries int) error {
	if entries == 0 {
		return nil
	}
	s := binSection{section: section, vantage: v, entries: uint64(entries), off: fw.off, ulen: uint64(len(payload))}
	if fw.opt.Compress {
		if err := fw.deflate(payload); err != nil {
			return err
		}
		s.clen, s.crc, s.compressed = fw.sink.n, fw.sink.crc, fw.sink.n < s.ulen
		if !s.compressed {
			if _, err := fw.f.Seek(int64(s.off), io.SeekStart); err != nil {
				return err
			}
			if err := fw.f.Truncate(int64(s.off)); err != nil {
				return err
			}
		}
	}
	if !s.compressed {
		if _, err := fw.f.Write(payload); err != nil {
			return err
		}
		s.clen, s.crc = s.ulen, crc32.Checksum(payload, binCRCTable)
	}
	fw.anyCompressed = fw.anyCompressed || s.compressed
	fw.secs = append(fw.secs, s)
	fw.off += s.clen
	return nil
}

// deflate writes payload flate-compressed at the file's end, counting
// and checksumming the bytes in fw.sink.
func (fw *frameWriter) deflate(payload []byte) error {
	if fw.zw == nil {
		fw.out = bufio.NewWriterSize(fw.f, 64<<10)
		fw.sink.w = fw.out
		zw, err := flate.NewWriter(&fw.sink, flate.BestSpeed)
		if err != nil {
			return err
		}
		fw.zw = zw
	} else {
		fw.zw.Reset(&fw.sink)
	}
	fw.sink.n, fw.sink.crc = 0, 0
	if _, err := fw.zw.Write(payload); err != nil {
		return err
	}
	if err := fw.zw.Close(); err != nil {
		return err
	}
	return fw.out.Flush()
}

// finish writes the index and the header (as container kind c, with
// the reservation res) and fsyncs the file.
func (fw *frameWriter) finish(c container, res reservation) error {
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
	copy(hdr, c.magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], c.version)
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
	if err := fw.encode(ShardSites, "", func(w *wbuf) int { return db.appendShardSites(w, 0, snapAllSites) }); err != nil {
		return err
	}
	for _, v := range db.Vantages() {
		if err := fw.encode(ShardDNS, v, func(w *wbuf) int { return db.appendDNS(w, v, 0, snapAllSites, 0, 0, nil) }); err != nil {
			return err
		}
		if err := fw.encode(ShardSamples, v, func(w *wbuf) int { return db.appendSamples(w, v, 0, snapAllSites, 0) }); err != nil {
			return err
		}
		if err := fw.encode(snapPaths, v, func(w *wbuf) int { return db.appendPaths(w, v, 0) }); err != nil {
			return err
		}
	}
	return fw.finish(snapshotFile, db.res)
}

// ErrNoDatabase reports that nothing was saved where a database was
// expected, as opposed to a damaged save (a *CorruptSnapshotError).
// Test for it with errors.Is.
var ErrNoDatabase = errors.New("no saved database")

// Load reads the database saved at base, the binary snapshot
// base+BinaryExt that SaveBinary wrote: a finished campaign's product
// (dir/main, dir/v6day) or a whole checkpoint snapshot. A missing file
// is ErrNoDatabase, naming the path; a damaged one a
// *CorruptSnapshotError (see loadBinary).
func Load(base string) (*DB, error) { return loadBinary(base + BinaryExt) }

// loadBinary reads a snapshot written by SaveBinary, memory-mapping
// the file when the platform allows. A missing file wraps
// ErrNoDatabase; a file whose bytes were read but do not decode is a
// *CorruptSnapshotError naming the damaged part. I/O failures that
// prevent reading the bytes at all (permission denied, a directory
// at the path) are neither — they are returned as the OS reported
// them, since the snapshot's state on disk is unknown.
func loadBinary(path string) (*DB, error) {
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
		r := &rbuf{b: payload}
		if err := r.done(db.decodeSection(r, s.section, s.vantage, 0, snapAllSites, 0)); err != nil {
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
	return parseFrames(path, data, snapshotFile)
}

// parseFrames is parseBinSnapshot for container kind c: a file with
// another magic or version is corrupt.
func parseFrames(path string, data []byte, c container) (binHeader, []binSection, string, error) {
	var h binHeader
	if len(data) < binHeaderSize {
		return h, nil, "", corruptf(path, "header", "file is %d bytes; a snapshot header is %d", len(data), binHeaderSize)
	}
	if !bytes.Equal(data[:8], c.magic[:]) {
		return h, nil, "", corruptf(path, "header", "bad magic %q", data[:8])
	}
	if got, want := binary.LittleEndian.Uint32(data[48:52]), crc32.Checksum(data[:48], binCRCTable); got != want {
		return h, nil, "", corruptf(path, "header", "checksum mismatch (stored %08x, computed %08x)", got, want)
	}
	h.version = binary.LittleEndian.Uint32(data[8:12])
	if h.version != c.version {
		return h, nil, "", corruptf(path, "header", "unsupported format version %d (this build reads %d)", h.version, c.version)
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
	secs, fingerprint, err := parseBinIndex(path, idxBytes, h.indexOff, c == segmentFile)
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
// the Load contract: ErrNoDatabase for a missing file,
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
