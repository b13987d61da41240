// Package simnet builds deterministic simulated worlds for the
// public natpunch facade: an Internet core, sites behind configurable
// NATs (including nested multi-level sites, Figures 4-6 of the
// paper), and hosts whose Transport plugs straight into
// natpunch.Open. The same facade code runs unchanged over
// natpunch/realudp; simnet is how examples and tests exercise NAT
// topologies no physical testbed provides.
//
// # Virtual time
//
// A World owns a discrete-event scheduler and a driver goroutine.
// Virtual time advances only while at least one facade call is
// blocked on the world (a dial in flight, a Read awaiting data, an
// Accept awaiting a session); when the application is between calls,
// the world idles. Blocking calls therefore complete as fast as the
// host CPU can process events — a punched handshake that spans
// seconds of virtual time returns in microseconds — while virtual
// timestamps (Now) remain internally consistent.
//
// Engine-level experiments that need bit-for-bit reproducible event
// orderings drive the scheduler directly (internal/experiments); the
// facade trades that strictness for a blocking net.Conn-shaped API.
package simnet

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/nat"
	"natpunch/internal/topo"
	"natpunch/transport"
)

// NAT describes a simulated NAT device's behavior: mapping and
// filtering policies, hairpin support, port allocation, timeouts.
// Obtain one from the profile constructors (Cone, Symmetric, ...) and
// adjust fields as needed.
type NAT = nat.Behavior

// Cone returns the well-behaved consumer profile: endpoint-
// independent mapping, address-and-port-dependent filtering, hairpin
// off — the common case Table 1 found punch-friendly.
func Cone() NAT { return nat.Cone() }

// FullCone returns endpoint-independent mapping and filtering.
func FullCone() NAT { return nat.FullCone() }

// RestrictedCone returns address-dependent (port-ignoring) filtering.
func RestrictedCone() NAT { return nat.RestrictedCone() }

// Symmetric returns the punch-hostile profile: a fresh mapping per
// destination, so advertised endpoints are useless to third parties.
func Symmetric() NAT { return nat.Symmetric() }

// SymmetricOpen returns symmetric mapping with open filtering — the
// profile whose pairs converge via peer-reflexive discovery.
func SymmetricOpen() NAT { return nat.SymmetricOpen() }

// Hairpin returns a copy of b with hairpin (loopback) translation
// enabled — the §3.5 behavior multi-level NAT topologies need.
func Hairpin(b NAT) NAT {
	b.HairpinUDP = true
	b.HairpinTCP = true
	return b
}

// World is one simulated internetwork and its event loop.
type World struct {
	mu      sync.Mutex
	cond    *sync.Cond
	in      *topo.Internet
	waiters int
	closed  bool
}

// NewWorld creates a world seeded for reproducible protocol behavior
// and starts its driver.
func NewWorld(seed int64) *World {
	w := &World{in: topo.NewInternet(seed)}
	w.cond = sync.NewCond(&w.mu)
	go w.drive()
	return w
}

// Close stops the world's driver. Dialers and servers in the world
// stop making progress; close them first for a tidy shutdown.
func (w *World) Close() {
	w.mu.Lock()
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

// SetPacketFilter installs a drop filter on the simulated fabric:
// every forwarding hop consults f with the packet's transport-level
// source and destination endpoints, and drops the packet (counted as
// fabric loss) when f returns false. A nil f removes the filter.
//
// The filter sees every hop of every packet — including NAT'd hops,
// where the source endpoint is the NAT's public mapping — so tests
// can black out a path deterministically: for example, dropping all
// packets where neither endpoint address is the rendezvous server's
// severs every direct peer-to-peer path while server-relayed traffic
// keeps flowing, which is how the stream failback tests force a §3.6
// relay retreat mid-transfer.
//
// f runs on the world's driver goroutine and must not call back into
// the world.
func (w *World) SetPacketFilter(f func(src, dst transport.Endpoint) bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.in.Net.SetFilter(f)
}

// Now returns the world's virtual clock.
func (w *World) Now() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.in.Net.Sched.Now()
}

// drive is the event loop: step simulated events while any facade
// call is blocked on the world, idle otherwise.
func (w *World) drive() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.closed {
		if w.waiters > 0 && w.in.Net.Sched.Step() {
			// Yield between events so a goroutine whose wait was just
			// satisfied can wake and deregister before the driver
			// free-runs further into virtual time (idle timer chains
			// would otherwise burn virtual hours in microseconds).
			w.mu.Unlock()
			runtime.Gosched()
			w.mu.Lock()
			continue
		}
		w.cond.Wait()
	}
}

// Core returns the public Internet realm.
func (w *World) Core() *Realm {
	return &Realm{w: w, r: w.in.CoreRealm()}
}

// Realm is an address realm: the public core or a private network
// behind a NAT.
type Realm struct {
	w *World
	r *topo.Realm
}

// AddSite creates a NAT with its outside interface at outsideAddr on
// this realm and a fresh private subnet behind it, returning the
// inner realm. Nesting AddSite calls builds the multi-level
// topologies of Figure 6.
func (r *Realm) AddSite(name string, profile NAT, outsideAddr, lanCIDR string) *Realm {
	r.w.mu.Lock()
	defer r.w.mu.Unlock()
	return &Realm{w: r.w, r: r.r.AddSite(name, profile, outsideAddr, lanCIDR)}
}

// AddHost attaches a host at addr.
func (r *Realm) AddHost(name, addr string) *Host {
	r.w.mu.Lock()
	defer r.w.mu.Unlock()
	return &Host{w: r.w, h: r.r.AddHost(name, addr, host.BSDStyle)}
}

// Host is a simulated end host.
type Host struct {
	w *World
	h *host.Host
}

// Transport returns the host's natpunch transport, serialized against
// the world's event loop: hand it to natpunch.Open or
// rendezvousapi.Serve.
func (h *Host) Transport() transport.Transport {
	return &worldTransport{w: h.w, inner: h.h.Transport()}
}

// worldTransport wraps the host's raw sim transport with the world's
// lock (Invoke) and waiter accounting, satisfying transport.Waiter so
// the facade can drive virtual time. The delegated methods are only
// reached from engine code already inside the world's serialized
// context.
type worldTransport struct {
	w     *World
	inner transport.Transport
}

func (t *worldTransport) BindUDP(port transport.Port) (transport.UDPConn, error) {
	return t.inner.BindUDP(port)
}

func (t *worldTransport) After(d time.Duration, fn func()) transport.Timer {
	return t.inner.After(d, fn)
}

func (t *worldTransport) Now() time.Duration { return t.inner.Now() }

func (t *worldTransport) Rand() *rand.Rand { return t.inner.Rand() }

// Invoke enters the world's serialized context and wakes the driver
// for any events fn scheduled.
func (t *worldTransport) Invoke(fn func()) {
	t.w.mu.Lock()
	fn()
	t.w.cond.Broadcast()
	t.w.mu.Unlock()
}

// AddWaiter implements transport.Waiter: while any waiter is blocked,
// the driver advances virtual time.
func (t *worldTransport) AddWaiter() {
	t.w.mu.Lock()
	t.w.waiters++
	t.w.cond.Broadcast()
	t.w.mu.Unlock()
}

// RemoveWaiter implements transport.Waiter.
func (t *worldTransport) RemoveWaiter() {
	t.w.mu.Lock()
	t.w.waiters--
	t.w.mu.Unlock()
}
