package rendezvous

import (
	"sort"
	"time"

	"natpunch/internal/inet"
)

// Record is one client's UDP registration as the server stores it:
// the §3.1 endpoint pair (public observed by a server, private
// reported by the client), which server the client is homed at, and
// when the record expires unless a §3.6 keep-alive refreshes it.
type Record struct {
	// Name is the client's rendezvous identity.
	Name string
	// Public is the client's public endpoint as observed by its home
	// server (§3.1: authoritative, read from the packet header).
	Public inet.Endpoint
	// Private is the client's own view of its endpoint, reported in
	// the registration body (§3.1).
	Private inet.Endpoint
	// Home is the federation peer the client registered with, or the
	// zero endpoint when the client is homed at the server holding
	// this record. Only the home server's datagrams can traverse the
	// client's NAT filter state, so all deliveries route through it.
	Home inet.Endpoint
	// ExpiresAt is the registry-clock instant after which the record
	// is dead (a silent client whose keep-alives stopped, §3.6).
	// Zero means the record never expires.
	ExpiresAt time.Duration
}

// Local reports whether the record is homed at the holding server.
func (r Record) Local() bool { return r.Home.IsZero() }

// Expired reports whether the record is past its TTL at now.
func (r Record) Expired(now time.Duration) bool {
	return r.ExpiresAt > 0 && now > r.ExpiresAt
}

// registry is the server's table of UDP registrations, keyed by
// client name. Like the rest of Server it is only touched from the
// transport's serialized context, so it takes no lock.
//
// Expiry is lazy: get and touch evict records past their TTL, so no
// background sweeper — which would keep a discrete-event
// simulation's queue eternally non-empty — is required.
type registry map[string]Record

// get returns the live record for name. A record past its TTL is
// evicted and reported as missing — the §3.6 contract that a silent
// peer stops being dialable.
func (r registry) get(name string, now time.Duration) (Record, bool) {
	rec, ok := r[name]
	if !ok {
		return Record{}, false
	}
	if rec.Expired(now) {
		delete(r, name)
		return Record{}, false
	}
	return rec, true
}

// touch restarts the TTL of name's record (a keep-alive arrived) and,
// when public is non-zero, refreshes its public endpoint (the NAT may
// have expired the old mapping). It reports whether a live record
// existed; an expired one is evicted, never revived.
func (r registry) touch(name string, public inet.Endpoint, expiresAt, now time.Duration) bool {
	rec, ok := r.get(name, now)
	if !ok {
		return false
	}
	if !public.IsZero() {
		rec.Public = public
	}
	rec.ExpiresAt = expiresAt
	r[name] = rec
	return true
}

// --- stable server ownership (rendezvous hashing) ---

// ownerScore is the rendezvous ("highest random weight") hash of one
// (name, server) pair. It depends only on the name and the server's
// endpoint — never on the order the server list was supplied in — so
// every participant computes the same owner for a name from the same
// server set.
func ownerScore(name string, server inet.Endpoint) uint64 {
	// Inlined allocation-free FNV-1a over name ++ endpoint bytes.
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime
	}
	for _, b := range [6]byte{
		byte(server.Addr >> 24), byte(server.Addr >> 16),
		byte(server.Addr >> 8), byte(server.Addr),
		byte(server.Port >> 8), byte(server.Port),
	} {
		h = (h ^ uint64(b)) * prime
	}
	// splitmix64 finalizer: FNV alone mixes poorly over inputs that
	// differ in one trailing byte (consecutive server addresses), which
	// would skew ownership shares.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Preference orders a server pool for one client name, best first:
// the head is the name's owner (its home server), the tail is the
// deterministic failover order. The order is a pure function of the
// name and the *set* of servers — input order is irrelevant — which
// is what lets clients, servers, and the fleet simulator all agree on
// who homes whom.
func Preference(name string, servers []inet.Endpoint) []inet.Endpoint {
	out := append([]inet.Endpoint(nil), servers...)
	scores := make(map[inet.Endpoint]uint64, len(out))
	for _, s := range out {
		scores[s] = ownerScore(name, s)
	}
	sort.Slice(out, func(i, j int) bool {
		si, sj := scores[out[i]], scores[out[j]]
		if si != sj {
			return si > sj
		}
		return out[i].Less(out[j]) // total order even on hash ties
	})
	return out
}

// Owner returns the server that owns name in the given pool (the head
// of Preference), or the zero endpoint for an empty pool.
func Owner(name string, servers []inet.Endpoint) inet.Endpoint {
	if len(servers) == 0 {
		return inet.Endpoint{}
	}
	best := servers[0]
	bestScore := ownerScore(name, best)
	for _, s := range servers[1:] {
		sc := ownerScore(name, s)
		if sc > bestScore || (sc == bestScore && s.Less(best)) {
			best, bestScore = s, sc
		}
	}
	return best
}
