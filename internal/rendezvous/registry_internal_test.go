package rendezvous

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"natpunch/internal/inet"
	"natpunch/internal/proto"
)

// TestRegistryTTL pins the table's lazy §3.6 expiry: get serves live
// records and evicts an expired one on its first miss; touch refreshes
// the TTL (and the public endpoint, when one is given) of a live
// record but never revives an expired one.
func TestRegistryTTL(t *testing.T) {
	ep1 := inet.MustParseEndpoint("155.99.25.11:1")
	ep2 := inet.MustParseEndpoint("155.99.25.11:2")
	reg := registry{}

	reg["a"] = Record{Name: "a", Public: ep1, ExpiresAt: 100}
	if _, ok := reg.get("a", 99); !ok {
		t.Fatal("live record missing")
	}
	if _, ok := reg.get("a", 101); ok {
		t.Fatal("expired record returned")
	}
	if _, ok := reg["a"]; ok {
		t.Fatal("expired record not evicted on first miss")
	}
	if _, ok := reg.get("a", 99); ok {
		t.Fatal("evicted record returned")
	}

	reg["b"] = Record{Name: "b", Public: ep1, ExpiresAt: 100}
	if !reg.touch("b", ep2, 200, 99) {
		t.Fatal("touch on live record failed")
	}
	rec, ok := reg.get("b", 150)
	if !ok || rec.ExpiresAt != 200 || rec.Public != ep2 {
		t.Fatalf("touch did not refresh: %+v ok=%v", rec, ok)
	}
	if !reg.touch("b", inet.Endpoint{}, 220, 150) {
		t.Fatal("touch without endpoint failed")
	}
	if rec, _ := reg.get("b", 150); rec.ExpiresAt != 220 || rec.Public != ep2 {
		t.Fatalf("touch without endpoint: %+v, want TTL 220 and public kept", rec)
	}
	if reg.touch("b", ep1, 300, 250) {
		t.Fatal("touch revived an expired record")
	}
	if len(reg) != 0 {
		t.Fatalf("table holds %d records after expiry, want 0", len(reg))
	}
}

// TestSyncToReplaysLocalLiveRecords: a federation sync carries only
// the records homed here and still live, in name order, so the packet
// stream never depends on map iteration order and never resurrects a
// peer's clients or a dead registration at another server.
func TestSyncToReplaysLocalLiveRecords(t *testing.T) {
	peer := inet.MustParseEndpoint("18.181.0.32:1234")
	var log []string
	conn := &stubConn{local: inet.MustParseEndpoint("18.181.0.31:1234"), log: &log}
	s, err := Serve(&stubTransport{conn: conn, rng: rand.New(rand.NewSource(1))}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	now := s.now()
	for _, rec := range []Record{
		{Name: "frank", ExpiresAt: now + time.Second},
		{Name: "carol", Home: peer}, // a peer's client
		{Name: "erin", ExpiresAt: now - time.Millisecond},
		{Name: "gina", Home: peer, ExpiresAt: now - 1},
		{Name: "alice"}, // never expires
		{Name: "dave", ExpiresAt: now + time.Hour},
		{Name: "bob", ExpiresAt: now + time.Minute},
	} {
		rec.Public = clientEP(rec.Name)
		s.reg[rec.Name] = rec
	}

	s.syncTo(peer)
	var want []string
	for _, name := range []string{"alice", "bob", "dave", "frank"} {
		want = append(want, proto.TypeFedRecord.String()+" "+name+"->"+peer.String())
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("sync sent %v, want %v", log, want)
	}
}
