package punch_test

// Regressions for traffic that overtakes the punching handshake: a
// correctly-nonced data datagram arriving before the punch-ack (§3.2
// step 3's lock-in evidence), and relayed data arriving from a peer
// that fell back to the relay (§2.2) before this side's own deadline.

import (
	"testing"
	"time"

	"natpunch/internal/ice"
	"natpunch/internal/inet"
	"natpunch/internal/nat"
	"natpunch/internal/proto"
	"natpunch/internal/punch"
	"natpunch/internal/rendezvous"
	"natpunch/internal/topo"
)

// TestDataBeforePunchAckLocksIn covers the UDP reordering case where
// the peer's first data datagram overtakes the punch-ack: the side
// whose ack is still in flight must accept correctly-nonced data as
// session lock-in instead of dropping it. A bare socket on S plays
// both the rendezvous server and the peer; it never acknowledges
// registration and never sends a punch-ack.
func TestDataBeforePunchAckLocksIn(t *testing.T) {
	c := topo.NewCanonical(3, nat.Cone(), nat.Cone())
	fake, err := c.S.UDPBind(serverPort)
	if err != nil {
		t.Fatal(err)
	}
	// Answer alice's connection request with a data datagram from
	// "bob" carrying the request's nonce, and nothing else.
	var requests int
	fake.OnRecv(func(from inet.Endpoint, payload []byte) {
		req, err := proto.Decode(payload)
		if err != nil || req.Type != proto.TypeConnectRequest || req.Target != "bob" {
			return
		}
		requests++
		fake.SendTo(from, proto.Encode(&proto.Message{
			Type: proto.TypeData, From: "bob", Nonce: req.Nonce, Seq: 1, Data: []byte("early bird"),
		}, 0))
	})

	alice := punch.NewClient(c.A, "alice", fake.Local(), punch.Config{})
	if err := alice.RegisterUDP(4321, nil); err != nil {
		t.Fatal(err)
	}
	var (
		sess *punch.UDPSession
		got  []byte
	)
	alice.ConnectUDP("bob", punch.UDPCallbacks{
		Established: func(s *punch.UDPSession) { sess = s },
		Failed:      func(_ string, err error) { t.Errorf("connect failed: %v", err) },
		Data:        func(_ *punch.UDPSession, p []byte) { got = append([]byte(nil), p...) },
	})
	c.RunFor(2 * time.Second)

	if requests != 1 {
		t.Fatalf("fake server saw %d connection requests, want 1", requests)
	}
	if sess == nil {
		t.Fatal("connect did not resolve on early data")
	}
	if sess.Peer != "bob" || sess.Via != punch.MethodPublic || sess.Remote != fake.Local() {
		t.Errorf("session = peer %q via %s at %s, want bob via public at %s",
			sess.Peer, sess.Via, sess.Remote, fake.Local())
	}
	if string(got) != "early bird" {
		t.Errorf("early datagram delivered as %q", got)
	}
	if n := alice.PendingUDPAttempts(); n != 0 {
		t.Errorf("%d attempts still pending after lock-in", n)
	}
}

// TestRelayedDataBeforeResponderFallback: between symmetric NATs
// punching cannot succeed (§5.1), and with skewed punch timeouts the
// dialer reaches the relay long before the responder gives up. The
// dialer's first datagram, relayed while the responder is still
// punching, must fall the responder back early instead of being
// dropped — so the very first echo comes back before the responder's
// own deadline. Both dial engines: plain punching and ICE.
func TestRelayedDataBeforeResponderFallback(t *testing.T) {
	for _, useICE := range []bool{false, true} {
		c := topo.NewCanonical(7, nat.Symmetric(), nat.Symmetric())
		srv, err := rendezvous.New(c.S, serverPort, 0)
		if err != nil {
			t.Fatal(err)
		}
		alice := punch.NewClient(c.A, "alice", srv.Endpoint(),
			punch.Config{RelayFallback: true, PunchTimeout: time.Second})
		bob := punch.NewClient(c.B, "bob", srv.Endpoint(),
			punch.Config{RelayFallback: true, PunchTimeout: 4 * time.Second})
		agA, agB := ice.New(alice, ice.Config{}), ice.New(bob, ice.Config{})
		var bobSess *punch.UDPSession
		echo := func(s *punch.UDPSession, p []byte) { s.Send(append([]byte("echo:"), p...)) }
		bob.InboundUDP = punch.UDPCallbacks{Established: func(s *punch.UDPSession) { bobSess = s }, Data: echo}
		agB.Inbound = ice.Callbacks{Established: func(s *punch.UDPSession, _ ice.Candidate) { bobSess = s }, Data: echo}
		if err := alice.RegisterUDP(4321, nil); err != nil {
			t.Fatal(err)
		}
		if err := bob.RegisterUDP(4321, nil); err != nil {
			t.Fatal(err)
		}
		c.RunFor(time.Second)

		var first string
		established := func(s *punch.UDPSession) { s.Send([]byte("first")) }
		failed := func(_ string, err error) { t.Errorf("ice=%v: dial failed: %v", useICE, err) }
		data := func(_ *punch.UDPSession, p []byte) {
			if first == "" {
				first = string(p)
			}
		}
		if useICE {
			agA.Connect("bob", ice.Callbacks{
				Established: func(s *punch.UDPSession, _ ice.Candidate) { established(s) },
				Failed:      failed, Data: data,
			})
		} else {
			alice.ConnectUDP("bob", punch.UDPCallbacks{Established: established, Failed: failed, Data: data})
		}
		c.RunFor(3 * time.Second) // past alice's deadline, short of bob's

		if first != "echo:first" {
			t.Errorf("ice=%v: first echo = %q, want %q (relayed datagram dropped before the responder fell back)",
				useICE, first, "echo:first")
		}
		if bobSess == nil || bobSess.Via != punch.MethodRelay {
			t.Errorf("ice=%v: responder session = %v, want a relay session", useICE, bobSess)
		}
		if n := bob.PendingUDPAttempts() + agB.PendingNegotiations(); n != 0 {
			t.Errorf("ice=%v: responder still holds %d attempts after falling back", useICE, n)
		}
	}
}
