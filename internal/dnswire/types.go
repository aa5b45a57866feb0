// Package dnswire implements a DNS message codec (RFC 1035 subset)
// sufficient for the paper's monitoring tool: A/AAAA/CNAME/NS/TXT/SOA
// records, name compression on encode and decompression on decode,
// and query/response construction helpers. The livenet measurement
// mode serves and parses these messages over real UDP sockets.
package dnswire

import (
	"errors"
	"fmt"
	"net"
	"strings"
)

// Type is a DNS RR type.
type Type uint16

// Supported RR types.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeANY   Type = 255
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeANY:
		return "ANY"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// Class is a DNS class; only IN is used.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a DNS response code.
type RCode uint8

// Response codes used by the simulator.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String implements fmt.Stringer.
func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE%d", uint8(r))
	}
}

// Header is the fixed 12-byte DNS message header (flags unpacked).
type Header struct {
	ID                 uint16
	Response           bool // QR
	Opcode             uint8
	Authoritative      bool // AA
	Truncated          bool // TC
	RecursionDesired   bool // RD
	RecursionAvailable bool // RA
	RCode              RCode
}

// Question is one entry of the question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// RR is a resource record. Data holds the raw RDATA; use the typed
// constructors and accessors for known types.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	Data  []byte
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// Codec errors.
var (
	ErrNameTooLong    = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong   = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel     = errors.New("dnswire: empty label")
	ErrTruncated      = errors.New("dnswire: message truncated")
	ErrPointerLoop    = errors.New("dnswire: compression pointer loop")
	ErrBadPointer     = errors.New("dnswire: compression pointer out of range")
	ErrTooManyRecords = errors.New("dnswire: record count exceeds message size")
	ErrBadRData       = errors.New("dnswire: malformed rdata")
)

// NormalizeName lowercases a domain name and ensures a single trailing
// dot ("" and "." both mean the root).
func NormalizeName(name string) string {
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	if name == "" {
		return "."
	}
	return name + "."
}

// checkName validates labels and total length of a normalized name.
func checkName(name string) error {
	if name == "." {
		return nil
	}
	if len(name) > 255 {
		return ErrNameTooLong
	}
	for _, label := range strings.Split(strings.TrimSuffix(name, "."), ".") {
		if len(label) == 0 {
			return ErrEmptyLabel
		}
		if len(label) > 63 {
			return ErrLabelTooLong
		}
	}
	return nil
}

// validOwner normalizes and validates an RR owner name.
func validOwner(name string) (string, error) {
	n := NormalizeName(name)
	if err := checkName(n); err != nil {
		return "", err
	}
	return n, nil
}

// NewA constructs an A record.
func NewA(name string, ttl uint32, ip net.IP) (RR, error) {
	owner, err := validOwner(name)
	if err != nil {
		return RR{}, err
	}
	v4 := ip.To4()
	if v4 == nil {
		return RR{}, fmt.Errorf("dnswire: %v is not an IPv4 address", ip)
	}
	return RR{Name: owner, Type: TypeA, Class: ClassIN, TTL: ttl, Data: append([]byte(nil), v4...)}, nil
}

// NewAAAA constructs an AAAA record.
func NewAAAA(name string, ttl uint32, ip net.IP) (RR, error) {
	owner, err := validOwner(name)
	if err != nil {
		return RR{}, err
	}
	v6 := ip.To16()
	if v6 == nil || ip.To4() != nil {
		return RR{}, fmt.Errorf("dnswire: %v is not an IPv6 address", ip)
	}
	return RR{Name: owner, Type: TypeAAAA, Class: ClassIN, TTL: ttl, Data: append([]byte(nil), v6...)}, nil
}

// NewCNAME constructs a CNAME record. The target is encoded
// uncompressed in the RDATA.
func NewCNAME(name string, ttl uint32, target string) (RR, error) {
	owner, err := validOwner(name)
	if err != nil {
		return RR{}, err
	}
	data, err := encodeNameRaw(NormalizeName(target))
	if err != nil {
		return RR{}, err
	}
	return RR{Name: owner, Type: TypeCNAME, Class: ClassIN, TTL: ttl, Data: data}, nil
}

// SOA is the parsed RDATA of an SOA record.
type SOA struct {
	MName   string // primary name server
	RName   string // responsible mailbox (dots encode the @)
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// NewSOA constructs an SOA record.
func NewSOA(name string, ttl uint32, soa SOA) (RR, error) {
	owner, err := validOwner(name)
	if err != nil {
		return RR{}, err
	}
	mname, err := encodeNameRaw(NormalizeName(soa.MName))
	if err != nil {
		return RR{}, err
	}
	rname, err := encodeNameRaw(NormalizeName(soa.RName))
	if err != nil {
		return RR{}, err
	}
	data := make([]byte, 0, len(mname)+len(rname)+20)
	data = append(data, mname...)
	data = append(data, rname...)
	for _, v := range [5]uint32{soa.Serial, soa.Refresh, soa.Retry, soa.Expire, soa.Minimum} {
		data = append(data, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return RR{Name: owner, Type: TypeSOA, Class: ClassIN, TTL: ttl, Data: data}, nil
}

// SOA parses the record's RDATA as an SOA.
func (r RR) SOA() (SOA, bool) {
	if r.Type != TypeSOA {
		return SOA{}, false
	}
	mname, off, err := decodeName(r.Data, 0, r.Data)
	if err != nil {
		return SOA{}, false
	}
	rname, off2, err := decodeName(r.Data, off, r.Data)
	if err != nil || off2+20 > len(r.Data) {
		return SOA{}, false
	}
	u32 := func(i int) uint32 {
		b := r.Data[off2+4*i:]
		return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	}
	return SOA{
		MName: NormalizeName(mname), RName: NormalizeName(rname),
		Serial: u32(0), Refresh: u32(1), Retry: u32(2), Expire: u32(3), Minimum: u32(4),
	}, true
}

// NewTXT constructs a TXT record from one character-string.
func NewTXT(name string, ttl uint32, text string) (RR, error) {
	owner, err := validOwner(name)
	if err != nil {
		return RR{}, err
	}
	if len(text) > 255 {
		return RR{}, fmt.Errorf("dnswire: TXT string exceeds 255 bytes")
	}
	data := make([]byte, 1+len(text))
	data[0] = byte(len(text))
	copy(data[1:], text)
	return RR{Name: owner, Type: TypeTXT, Class: ClassIN, TTL: ttl, Data: data}, nil
}

// A returns the IPv4 address of an A record.
func (r RR) A() (net.IP, bool) {
	if r.Type != TypeA || len(r.Data) != 4 {
		return nil, false
	}
	return net.IP(r.Data), true
}

// AAAA returns the IPv6 address of an AAAA record.
func (r RR) AAAA() (net.IP, bool) {
	if r.Type != TypeAAAA || len(r.Data) != 16 {
		return nil, false
	}
	return net.IP(r.Data), true
}

// Target returns the domain name inside a CNAME or NS record.
func (r RR) Target() (string, bool) {
	if r.Type != TypeCNAME && r.Type != TypeNS {
		return "", false
	}
	name, _, err := decodeName(r.Data, 0, r.Data)
	if err != nil {
		return "", false
	}
	return name, true
}

// TXT returns the first character-string of a TXT record.
func (r RR) TXT() (string, bool) {
	if r.Type != TypeTXT || len(r.Data) < 1 {
		return "", false
	}
	n := int(r.Data[0])
	if len(r.Data) < 1+n {
		return "", false
	}
	return string(r.Data[1 : 1+n]), true
}

// NewQuery builds a recursive query for (name, type).
func NewQuery(id uint16, name string, t Type) *Message {
	return &Message{
		Header:    Header{ID: id, RecursionDesired: true},
		Questions: []Question{{Name: NormalizeName(name), Type: t, Class: ClassIN}},
	}
}

// NewResponse builds an authoritative response echoing q's question.
func NewResponse(q *Message, rcode RCode, answers ...RR) *Message {
	m := &Message{
		Header: Header{
			ID:                 q.Header.ID,
			Response:           true,
			Opcode:             q.Header.Opcode,
			Authoritative:      true,
			RecursionDesired:   q.Header.RecursionDesired,
			RecursionAvailable: true,
			RCode:              rcode,
		},
		Answers: answers,
	}
	m.Questions = append(m.Questions, q.Questions...)
	return m
}
