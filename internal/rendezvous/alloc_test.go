package rendezvous

import (
	"math/rand"
	"testing"
	"time"

	"natpunch/internal/inet"
	"natpunch/internal/proto"
	"natpunch/transport"
)

// The allocs/op regression gate for the server's packets-per-second
// ceiling: with a transport whose conns release payloads before
// SendTo returns (transport.ScratchSender — realudp does), the
// relay, forwarder, and keep-alive paths must run without a single
// steady-state heap allocation. CI runs these tests by name; a
// regression here is a regression in relay goodput.

// stubConn is a ScratchSender conn that counts sends and discards
// payloads, isolating the server's own allocation behavior.
type stubConn struct {
	local  inet.Endpoint
	onRecv func(from inet.Endpoint, payload []byte)
	sent   int
	lastTo inet.Endpoint
	// log, when set, records "type from->destination" per send; the
	// allocation gates leave it off.
	log *[]string
}

func (c *stubConn) Local() inet.Endpoint                               { return c.local }
func (c *stubConn) OnRecv(fn func(from inet.Endpoint, payload []byte)) { c.onRecv = fn }
func (c *stubConn) SendTo(to inet.Endpoint, payload []byte) error {
	c.sent++
	c.lastTo = to
	if c.log != nil {
		m, err := proto.Decode(payload)
		if err != nil {
			return err
		}
		*c.log = append(*c.log, m.Type.String()+" "+m.From+"->"+to.String())
	}
	return nil
}
func (c *stubConn) Close()              {}
func (c *stubConn) ScratchSendOK() bool { return true }

type stubTimer struct{}

func (stubTimer) Stop() bool   { return false }
func (stubTimer) Active() bool { return false }

type stubTransport struct {
	conn *stubConn
	rng  *rand.Rand
}

func (t *stubTransport) BindUDP(port inet.Port) (transport.UDPConn, error) { return t.conn, nil }
func (t *stubTransport) After(d time.Duration, fn func()) transport.Timer  { return stubTimer{} }
func (t *stubTransport) Now() time.Duration                                { return time.Second }
func (t *stubTransport) Rand() *rand.Rand                                  { return t.rng }
func (t *stubTransport) Invoke(fn func())                                  { fn() }

// allocServer builds a server over the stub transport with alice and
// bob registered via real wire traffic.
func allocServer(t testing.TB, cfg Config) (*Server, *stubConn) {
	t.Helper()
	conn := &stubConn{local: inet.MustParseEndpoint("18.181.0.31:1234")}
	s, err := Serve(&stubTransport{conn: conn, rng: rand.New(rand.NewSource(1))}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alice", "bob"} {
		wire := proto.Encode(&proto.Message{
			Type: proto.TypeRegister, From: name,
			Private: inet.MustParseEndpoint("10.0.0.1:4321"),
		}, 0)
		conn.onRecv(clientEP(name), wire)
	}
	return s, conn
}

func clientEP(name string) inet.Endpoint {
	if name == "alice" {
		return inet.MustParseEndpoint("155.99.25.11:62000")
	}
	return inet.MustParseEndpoint("138.76.29.7:31000")
}

func requireZeroAllocs(t *testing.T, what string, fn func()) {
	t.Helper()
	fn() // warm up scratch buffers and intern table
	fn()
	if allocs := testing.AllocsPerRun(500, fn); allocs != 0 {
		t.Errorf("%s allocates %v/op in steady state, want 0", what, allocs)
	}
}

// TestRelayForwardZeroAlloc pins the §2.2 relay forward path —
// decode, registry lookup, re-encode, send — at zero allocations per
// relayed datagram.
func TestRelayForwardZeroAlloc(t *testing.T) {
	s, conn := allocServer(t, Config{})
	wire := proto.Encode(&proto.Message{
		Type: proto.TypeRelayTo, From: "alice", Target: "bob",
		Seq: 7, Data: []byte("relay payload of plausible size, 48 bytes or so"),
	}, 0)
	src := clientEP("alice")
	before := conn.sent
	requireZeroAllocs(t, "relay forward", func() {
		conn.onRecv(src, wire)
	})
	if conn.sent == before || conn.lastTo != clientEP("bob") {
		t.Fatalf("relay did not forward (sent=%d, lastTo=%v)", conn.sent, conn.lastTo)
	}
	if s.Stats().RelayedMessages == 0 {
		t.Fatal("relay stats not counted")
	}
}

// TestRelayOnlyZeroAlloc runs the same gate in RelayOnly mode — the
// standalone relay tier deployment (relayapi).
func TestRelayOnlyZeroAlloc(t *testing.T) {
	_, conn := allocServer(t, Config{RelayOnly: true})
	wire := proto.Encode(&proto.Message{
		Type: proto.TypeRelayTo, From: "alice", Target: "bob",
		Seq: 9, Data: []byte("x"),
	}, 0)
	src := clientEP("alice")
	requireZeroAllocs(t, "relay-only forward", func() {
		conn.onRecv(src, wire)
	})
}

// TestFederatedRelayZeroAlloc pins the federated variant: the relayed
// message is encoded into the inner scratch and wrapped in a
// FedForward to the target's home server — still zero allocations.
func TestFederatedRelayZeroAlloc(t *testing.T) {
	s, conn := allocServer(t, Config{})
	home := inet.MustParseEndpoint("18.181.0.32:1234")
	s.reg["carol"] = Record{
		Name: "carol", Public: inet.MustParseEndpoint("204.16.1.9:7000"),
		Home: home, ExpiresAt: 0,
	}
	wire := proto.Encode(&proto.Message{
		Type: proto.TypeRelayTo, From: "alice", Target: "carol",
		Seq: 3, Data: []byte("cross-server relay"),
	}, 0)
	src := clientEP("alice")
	before := conn.sent
	requireZeroAllocs(t, "federated relay forward", func() {
		conn.onRecv(src, wire)
	})
	if conn.sent == before || conn.lastTo != home {
		t.Fatalf("federated relay did not route via home (lastTo=%v)", conn.lastTo)
	}
}

// TestForwarderZeroAlloc pins §3.2 step 2 — one ConnectRequest fans
// out two ConnectDetails — at zero allocations per request.
func TestForwarderZeroAlloc(t *testing.T) {
	_, conn := allocServer(t, Config{})
	wire := proto.Encode(&proto.Message{
		Type: proto.TypeConnectRequest, From: "alice", Target: "bob", Nonce: 42,
	}, 0)
	src := clientEP("alice")
	requireZeroAllocs(t, "connect-request forward", func() {
		conn.onRecv(src, wire)
	})
}

// TestKeepAliveZeroAlloc pins the §3.6 keep-alive refresh — the
// steady-state background load of every registered client.
func TestKeepAliveZeroAlloc(t *testing.T) {
	_, conn := allocServer(t, Config{})
	wire := proto.Encode(&proto.Message{
		Type: proto.TypeKeepAlive, From: "alice",
	}, 0)
	src := clientEP("alice")
	requireZeroAllocs(t, "keep-alive refresh", func() {
		conn.onRecv(src, wire)
	})
}

// TestSimTransportStillCopies pins the other side of the
// ScratchSender contract: without the capability, sendUDP must NOT
// reuse the scratch encoding, because such transports may retain the
// payload slice after SendTo returns.
func TestSimTransportStillCopies(t *testing.T) {
	conn := &retainingConn{local: inet.MustParseEndpoint("18.181.0.31:1234")}
	s, err := Serve(&stubTransport2{conn: conn}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.reuseEnc {
		t.Fatal("reuseEnc enabled for a conn without ScratchSendOK")
	}
	for _, name := range []string{"alice", "bob"} {
		wire := proto.Encode(&proto.Message{Type: proto.TypeRegister, From: name}, 0)
		conn.onRecv(clientEP(name), wire)
	}
	relay := func(seq uint32, data string) []byte {
		return proto.Encode(&proto.Message{
			Type: proto.TypeRelayTo, From: "alice", Target: "bob", Seq: seq, Data: []byte(data),
		}, 0)
	}
	conn.onRecv(clientEP("alice"), relay(1, "first"))
	first := conn.retained
	conn.onRecv(clientEP("alice"), relay(2, "second"))
	m, err := proto.Decode(first)
	if err != nil || m.Seq != 1 || string(m.Data) != "first" {
		t.Fatalf("retained payload corrupted by a later send: %+v %v", m, err)
	}
}

// retainingConn models the simulated transport: it keeps the payload
// slice (simnet queues packets referencing it) and deliberately lacks
// the ScratchSender capability.
type retainingConn struct {
	local    inet.Endpoint
	onRecv   func(from inet.Endpoint, payload []byte)
	retained []byte
}

func (c *retainingConn) Local() inet.Endpoint { return c.local }
func (c *retainingConn) OnRecv(fn func(from inet.Endpoint, payload []byte)) {
	c.onRecv = fn
}
func (c *retainingConn) SendTo(to inet.Endpoint, payload []byte) error {
	c.retained = payload
	return nil
}
func (c *retainingConn) Close() {}

type stubTransport2 struct {
	conn *retainingConn
}

func (t *stubTransport2) BindUDP(port inet.Port) (transport.UDPConn, error) { return t.conn, nil }
func (t *stubTransport2) After(d time.Duration, fn func()) transport.Timer  { return stubTimer{} }
func (t *stubTransport2) Now() time.Duration                                { return time.Second }
func (t *stubTransport2) Rand() *rand.Rand                                  { return rand.New(rand.NewSource(2)) }
func (t *stubTransport2) Invoke(fn func())                                  { fn() }
