package rendezvous

import (
	"math/rand"
	"testing"

	"natpunch/internal/inet"
	"natpunch/internal/proto"
)

// TestRegisterReplicatesBeforeAck: a registrant must not learn it is
// registered before the federation does. With the ack sent first, a
// loaded host could deliver it, and let a peer server be asked for
// the new name, before that server's copy of the record went out —
// the dial then failed with an unknown-peer error.
func TestRegisterReplicatesBeforeAck(t *testing.T) {
	peer := inet.MustParseEndpoint("18.181.0.32:1234")
	var log []string
	conn := &stubConn{local: inet.MustParseEndpoint("18.181.0.31:1234"), log: &log}
	s, err := Serve(&stubTransport{conn: conn, rng: rand.New(rand.NewSource(1))}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.Join(peer)
	log = nil // drop the join handshake
	conn.onRecv(clientEP("bob"), proto.Encode(&proto.Message{
		Type: proto.TypeRegister, From: "bob", Private: inet.MustParseEndpoint("10.1.1.3:4321"),
	}, 0))

	want := []string{
		proto.TypeFedRecord.String() + " bob->" + peer.String(),
		proto.TypeRegisterOK.String() + " ->" + clientEP("bob").String(),
	}
	if len(log) != len(want) || log[0] != want[0] || log[1] != want[1] {
		t.Fatalf("sends on registration = %v, want %v", log, want)
	}
}
