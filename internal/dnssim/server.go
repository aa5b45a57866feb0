package dnssim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"v6web/internal/dnswire"
)

// Server is an authoritative DNS server answering from a Zone over
// both UDP and TCP on the same port. It follows CNAME chains within
// the zone (up to a small depth), distinguishes NXDOMAIN from empty
// answers, and truncates oversized UDP responses (TC bit) so clients
// retry over TCP — RFC 1035 §4.2.2 framing with a 2-byte length
// prefix.
type Server struct {
	zone *Zone
	conn *net.UDPConn
	ln   net.Listener

	mu     sync.Mutex
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// maxCNAMEChain bounds in-zone CNAME following.
const maxCNAMEChain = 4

// portPairTries bounds how often NewServer moves to a fresh ephemeral
// port when another socket already holds the TCP half of the pair.
const portPairTries = 8

// NewServer starts a server on addr (e.g. "127.0.0.1:0") answering
// from zone over UDP and TCP. With port 0 the kernel picks the UDP
// port, which another socket may already hold for TCP; NewServer then
// retries the pair on a fresh port, a bounded number of times. An
// explicit port that is taken fails at once.
func NewServer(zone *Zone, addr string) (*Server, error) {
	return newServer(zone, addr, net.Listen)
}

// newServer is NewServer with the TCP listen supplied, so a test can
// take the TCP port before the server does.
func newServer(zone *Zone, addr string, listenTCP func(network, address string) (net.Listener, error)) (*Server, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	for try := 1; ; try++ {
		conn, err := net.ListenUDP("udp", ua)
		if err != nil {
			return nil, err
		}
		// TCP on the same port (now concrete even if addr used :0).
		ln, err := listenTCP("tcp", conn.LocalAddr().String())
		if err != nil {
			conn.Close()
			if ua.Port != 0 {
				return nil, err
			}
			if try == portPairTries {
				return nil, fmt.Errorf("dnssim: no free UDP+TCP port pair in %d tries: %w", try, err)
			}
			continue
		}
		s := &Server{zone: zone, conn: conn, ln: ln, done: make(chan struct{})}
		go s.serveUDP()
		s.wg.Add(1)
		go s.serveTCP()
		return s, nil
	}
}

// Addr returns the server's bound UDP address (the TCP listener uses
// the same port).
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.conn.Close()
	s.ln.Close()
	<-s.done
	s.wg.Wait()
	return err
}

func (s *Server) serveUDP() {
	defer close(s.done)
	buf := make([]byte, 4096)
	for {
		n, peer, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		resp := s.handle(buf[:n])
		if resp == nil {
			continue
		}
		out, err := resp.Encode()
		if err != nil {
			continue
		}
		if len(out) > dnswire.MaxUDPSize {
			// Truncate: strip answers, set TC, let the client retry
			// over TCP.
			trunc := *resp
			trunc.Answers = nil
			trunc.Authority = nil
			trunc.Additional = nil
			trunc.Header.Truncated = true
			if out, err = trunc.Encode(); err != nil {
				continue
			}
		}
		s.conn.WriteToUDP(out, peer)
	}
}

func (s *Server) serveTCP() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleTCPConn(conn)
		}()
	}
}

// handleTCPConn serves length-prefixed queries on one connection.
func (s *Server) handleTCPConn(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(30 * time.Second)) //v6lint:wallclock socket deadline on a live connection
	for {
		var lenBuf [2]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint16(lenBuf[:])
		msg := make([]byte, n)
		if _, err := io.ReadFull(conn, msg); err != nil {
			return
		}
		resp := s.handle(msg)
		if resp == nil {
			return
		}
		out, err := resp.Encode()
		if err != nil {
			return
		}
		if len(out) > 0xFFFF {
			return
		}
		binary.BigEndian.PutUint16(lenBuf[:], uint16(len(out)))
		if _, err := conn.Write(append(lenBuf[:], out...)); err != nil {
			return
		}
	}
}

// handle builds the response for one request; nil means drop.
func (s *Server) handle(pkt []byte) *dnswire.Message {
	q, err := dnswire.Decode(pkt)
	if err != nil || q.Header.Response || len(q.Questions) != 1 {
		if err != nil || q == nil {
			return nil
		}
		return dnswire.NewResponse(q, dnswire.RCodeFormErr)
	}
	question := q.Questions[0]
	if question.Class != dnswire.ClassIN {
		return dnswire.NewResponse(q, dnswire.RCodeNotImp)
	}
	name := question.Name
	var answers []dnswire.RR
	for depth := 0; depth <= maxCNAMEChain; depth++ {
		if rrs := s.zone.Lookup(name, question.Type); len(rrs) > 0 {
			answers = append(answers, rrs...)
			break
		}
		cn := s.zone.Lookup(name, dnswire.TypeCNAME)
		if len(cn) == 0 || question.Type == dnswire.TypeCNAME {
			break
		}
		answers = append(answers, cn[0])
		if target, ok := cn[0].Target(); ok {
			name = target
			continue
		}
		break
	}
	if len(answers) > 0 {
		return dnswire.NewResponse(q, dnswire.RCodeNoError, answers...)
	}
	if s.zone.Exists(question.Name) {
		return dnswire.NewResponse(q, dnswire.RCodeNoError) // NODATA
	}
	return dnswire.NewResponse(q, dnswire.RCodeNXDomain)
}
