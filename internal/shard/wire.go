package shard

// Frame layer of the worker protocol. Every message after the spec
// handshake is one frame: a little-endian u32 payload length, a type
// byte, a u32 CRC-32C of the payload, and the payload. Round frames
// double as liveness heartbeats — the coordinator declares a worker
// dead when no frame arrives within the retry policy's timeout.
// Authoritative data travels only in the final dump (section frames
// followed by done), so a worker that dies mid-campaign never leaves
// half-merged state behind. A section frame names its section, the
// spec range it covers by index (0 main, 1 extended) and its vantage,
// never ids: the coordinator merges it under that range of the spec it
// sent. Path snapshots never travel: the coordinator rebuilds them from
// the merged DNS history. The CRC makes in-flight corruption a *stream*
// error caught before any payload is interpreted — and since results
// buffer until the done frame, before anything is merged — so a
// corrupted stream retries like a dead worker instead of poisoning the
// campaign with a permanent decode failure.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	frameHello   byte = 1 // worker accepted the spec: index, fingerprint
	frameRound   byte = 2 // heartbeat: a round completed
	frameSection byte = 3 // one store section over one spec range (final dump)
	frameDone    byte = 5 // final dump complete
	frameError   byte = 6 // worker failed; payload is the message
)

const (
	maxFramePayload = 1 << 28
	maxSpecBlob     = 1 << 24
	frameHdrSize    = 9 // u32 length + type byte + u32 payload crc32c
)

var frameCRCTable = crc32.MakeTable(crc32.Castagnoli)

func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFramePayload {
		return fmt.Errorf("shard: frame payload %d exceeds limit", len(payload))
	}
	var hdr [frameHdrSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	binary.LittleEndian.PutUint32(hdr[5:], crc32.Checksum(payload, frameCRCTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [frameHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("shard: frame payload %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	if crc := crc32.Checksum(payload, frameCRCTable); crc != binary.LittleEndian.Uint32(hdr[5:]) {
		return 0, nil, fmt.Errorf("shard: frame crc mismatch (type %d, %d bytes)", hdr[4], n)
	}
	return hdr[4], payload, nil
}

// writeSpec / readSpec are the handshake: a u32-length-prefixed JSON
// blob, coordinator to worker, once per connection.
func writeSpec(w io.Writer, sp Spec) error {
	blob, err := json.Marshal(sp)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(blob)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(blob)
	return err
}

func readSpec(r io.Reader) (Spec, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Spec{}, fmt.Errorf("shard: reading spec: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxSpecBlob {
		return Spec{}, fmt.Errorf("shard: spec blob %d exceeds limit", n)
	}
	blob := make([]byte, n)
	if _, err := io.ReadFull(r, blob); err != nil {
		return Spec{}, fmt.Errorf("shard: reading spec: %w", err)
	}
	var sp Spec
	if err := json.Unmarshal(blob, &sp); err != nil {
		return Spec{}, fmt.Errorf("shard: decoding spec: %w", err)
	}
	return sp, nil
}

// --- payload codecs --------------------------------------------------

type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("shard: truncated varint")
		return 0
	}
	r.b = r.b[n:]
	return x
}

func (r *wireReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)) < n {
		r.fail("shard: truncated string")
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func encodeHello(index int, fingerprint string) []byte {
	b := binary.AppendUvarint(nil, uint64(index))
	return appendString(b, fingerprint)
}

func decodeHello(b []byte) (index int, fingerprint string, err error) {
	r := &wireReader{b: b}
	index = int(r.uvarint())
	fingerprint = r.str()
	return index, fingerprint, r.err
}

func encodeRound(round, sites, dual, measured int) []byte {
	b := binary.AppendUvarint(nil, uint64(round))
	b = binary.AppendUvarint(b, uint64(sites))
	b = binary.AppendUvarint(b, uint64(dual))
	return binary.AppendUvarint(b, uint64(measured))
}

func decodeRound(b []byte) (round, sites, dual, measured int, err error) {
	r := &wireReader{b: b}
	round = int(r.uvarint())
	sites = int(r.uvarint())
	dual = int(r.uvarint())
	measured = int(r.uvarint())
	return round, sites, dual, measured, r.err
}

// sectionMsg is one decoded section frame: a store payload plus the
// section, spec range index and vantage the coordinator merges it
// under. The sites section names no vantage.
type sectionMsg struct {
	section byte
	rng     byte // index into Spec.ranges: 0 main, 1 extended
	vantage string
	payload []byte
}

// appendSectionHeader appends a section frame's header (section, spec
// range index, vantage) to b; the frame's payload follows it.
func appendSectionHeader(b []byte, section, rng byte, vantage string) []byte {
	return appendString(append(b, section, rng), vantage)
}

func decodeSectionFrame(b []byte) (sectionMsg, error) {
	if len(b) < 2 {
		return sectionMsg{}, fmt.Errorf("shard: section frame of %d bytes", len(b))
	}
	m := sectionMsg{section: b[0], rng: b[1]}
	if m.rng > 1 {
		return sectionMsg{}, fmt.Errorf("shard: section frame names range %d, want 0 (main) or 1 (extended)", m.rng)
	}
	r := &wireReader{b: b[2:]}
	m.vantage = r.str()
	m.payload = r.b
	return m, r.err
}
