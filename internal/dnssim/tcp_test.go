package dnssim

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"v6web/internal/dnswire"
)

// bigRRSet installs enough A records under one name that the response
// exceeds the 512-byte UDP limit.
func bigRRSet(t *testing.T, z *Zone, host string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rr, err := dnswire.NewA(host, 300, net.IPv4(10, 0, byte(i>>8), byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		z.Add(rr)
	}
}

func TestTruncationAndTCPFallback(t *testing.T) {
	z := NewZone()
	bigRRSet(t, z, "many.v6web.test", 60) // 60 A records ≈ 60*16+ bytes > 512
	s := startServer(t, z)

	// Raw UDP query sees the TC bit and no answers.
	q := dnswire.NewQuery(99, "many.v6web.test", dnswire.TypeA)
	pkt, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	conn.Write(pkt)
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n > dnswire.MaxUDPSize {
		t.Fatalf("UDP response %d bytes exceeds 512", n)
	}
	m, err := dnswire.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if !m.Header.Truncated {
		t.Fatal("TC bit not set on oversized response")
	}
	if len(m.Answers) != 0 {
		t.Fatalf("truncated response carries %d answers", len(m.Answers))
	}

	// The resolver transparently falls back to TCP and gets all 60.
	r := NewResolver(s.Addr().String(), nil, 5)
	ips, err := r.LookupA("many.v6web.test")
	if err != nil {
		t.Fatal(err)
	}
	if len(ips) != 60 {
		t.Fatalf("TCP fallback returned %d records, want 60", len(ips))
	}
}

func TestDirectTCPQuery(t *testing.T) {
	z := NewZone()
	z.SetSite("tcp.v6web.test", 120, net.ParseIP("192.0.2.44"), nil)
	s := startServer(t, z)

	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))

	q := dnswire.NewQuery(7, "tcp.v6web.test", dnswire.TypeA)
	pkt, _ := q.Encode()
	framed := make([]byte, 2+len(pkt))
	binary.BigEndian.PutUint16(framed, uint16(len(pkt)))
	copy(framed[2:], pkt)
	if _, err := conn.Write(framed); err != nil {
		t.Fatal(err)
	}
	var lenBuf [2]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatal(err)
	}
	m, err := dnswire.Decode(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 1 {
		t.Fatalf("tcp answers: %d", len(m.Answers))
	}
	ip, ok := m.Answers[0].A()
	if !ok || !ip.Equal(net.ParseIP("192.0.2.44")) {
		t.Fatalf("tcp A: %v %v", ip, ok)
	}

	// Pipelined second query on the same connection.
	q2 := dnswire.NewQuery(8, "tcp.v6web.test", dnswire.TypeA)
	pkt2, _ := q2.Encode()
	binary.BigEndian.PutUint16(framed, uint16(len(pkt2)))
	copy(framed[2:], pkt2)
	if _, err := conn.Write(framed[:2+len(pkt2)]); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		t.Fatal(err)
	}
	resp2 := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	if _, err := io.ReadFull(conn, resp2); err != nil {
		t.Fatal(err)
	}
	m2, err := dnswire.Decode(resp2)
	if err != nil || m2.Header.ID != 8 {
		t.Fatalf("pipelined query: %v %+v", err, m2)
	}
}

func TestTCPGarbageDoesNotKillServer(t *testing.T) {
	z := NewZone()
	z.SetSite("ok2.v6web.test", 60, net.ParseIP("192.0.2.13"), nil)
	s := startServer(t, z)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0, 3, 0xde, 0xad, 0xbe}) // framed garbage
	conn.Close()
	r := NewResolver(s.Addr().String(), nil, 9)
	if _, err := r.LookupA("ok2.v6web.test"); err != nil {
		t.Fatalf("server died after tcp garbage: %v", err)
	}
}

// TestServerMovesOffTakenTCPPort forces the port-pair collision: another
// socket already holds TCP on the port the kernel picked for UDP. With
// port 0 the server must retry on a fresh pair that serves both
// transports; an explicit port must fail on the first try.
func TestServerMovesOffTakenTCPPort(t *testing.T) {
	var taken []net.Listener
	defer func() {
		for _, ln := range taken {
			ln.Close()
		}
	}()
	takeFirstTwo := func(network, address string) (net.Listener, error) {
		if len(taken) < 2 {
			ln, err := net.Listen(network, address)
			if err != nil {
				return nil, err
			}
			taken = append(taken, ln)
		}
		return net.Listen(network, address)
	}
	z := NewZone()
	bigRRSet(t, z, "many.v6web.test", 60)
	s, err := newServer(z, "127.0.0.1:0", takeFirstTwo)
	if err != nil {
		t.Fatalf("newServer with two taken TCP ports: %v", err)
	}
	defer s.Close()
	port := s.Addr().Port
	if tcpPort := s.ln.Addr().(*net.TCPAddr).Port; tcpPort != port {
		t.Fatalf("UDP on port %d, TCP on port %d", port, tcpPort)
	}
	for _, ln := range taken {
		if ln.Addr().(*net.TCPAddr).Port == port {
			t.Fatalf("server kept the taken port %d", port)
		}
	}
	// The truncated UDP answer forces the TCP fallback on the same port.
	ips, err := NewResolver(s.Addr().String(), nil, 5).LookupA("many.v6web.test")
	if err != nil || len(ips) != 60 {
		t.Fatalf("lookup over the new pair: %d records, %v", len(ips), err)
	}

	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	tries := 0
	countTries := func(network, address string) (net.Listener, error) {
		tries++
		return net.Listen(network, address)
	}
	if s2, err := newServer(z, held.Addr().String(), countTries); err == nil {
		s2.Close()
		t.Fatal("explicit taken port: server started")
	}
	if tries > 1 {
		t.Fatalf("explicit taken port: %d TCP tries, want 1", tries)
	}
}
