package punch

import (
	"errors"
	"time"

	"natpunch/internal/host"
	"natpunch/internal/inet"
	"natpunch/internal/proto"
	"natpunch/internal/tcp"
	"natpunch/transport"
)

// TCPCallbacks are the application-visible events of a TCP session.
type TCPCallbacks struct {
	Established func(*TCPSession)
	Failed      func(peer string, err error)
	Data        func(*TCPSession, []byte)
}

// TCPSession is an established peer-to-peer TCP stream (or a relayed
// fallback). Messages are length-framed on the stream; Send/Data
// preserve message boundaries.
type TCPSession struct {
	c    *Client
	Peer string
	// Conn is the underlying stream; nil for relay sessions.
	Conn *tcp.Conn
	// Accepted reports whether the working socket arrived via
	// accept() rather than connect() — the §4.3 distinction the
	// application is told to ignore but the experiments report.
	Accepted bool
	Via      Method
	Nonce    uint64

	cb     TCPCallbacks
	dec    proto.StreamDecoder
	seq    uint32
	closed bool
}

// tcpState is the TCP half of a Client.
type tcpState struct {
	tcpLocalPort  inet.Port
	tcpListener   *host.TCPListener
	tcpServer     *tcp.Conn
	tcpServerDec  proto.StreamDecoder
	tcpPublic     inet.Endpoint
	tcpPrivate    inet.Endpoint
	tcpRegistered bool
	tcpRegDone    func(error)
	tcpKeepAlive  transport.Timer

	tcpAttempts map[uint64]*tcpAttempt
	tcpSessions map[string]*TCPSession

	// InboundTCP supplies callbacks for peer-initiated sessions.
	InboundTCP TCPCallbacks
}

func (c *Client) tcpInit() {
	c.tcpAttempts = make(map[uint64]*tcpAttempt)
	c.tcpSessions = make(map[string]*TCPSession)
}

func (c *Client) tcpClose() {
	for _, a := range c.tcpAttempts {
		a.stop(nil)
	}
	if c.tcpKeepAlive != nil {
		c.tcpKeepAlive.Stop()
	}
	if c.tcpListener != nil {
		c.tcpListener.Close()
	}
	if c.tcpServer != nil {
		c.tcpServer.Close()
	}
}

// tcpAttempt tracks one in-progress TCP punching attempt: the set of
// outstanding sockets of Figure 7 minus the S connection (which the
// Client owns), the retry timers of §4.2 step 4, and the auth state
// of step 5.
type tcpAttempt struct {
	c          *Client
	peer       string
	nonce      uint64
	requester  bool
	cb         TCPCallbacks
	pub, priv  inet.Endpoint
	gotDetails bool

	conns       map[*tcp.Conn]bool // outstanding unauthenticated conns
	retryTimers []transport.Timer
	deadline    transport.Timer
	sequential  bool
	done        bool
}

func (a *tcpAttempt) stop(winner *tcp.Conn) {
	a.done = true
	for _, t := range a.retryTimers {
		t.Stop()
	}
	if a.deadline != nil {
		a.deadline.Stop()
	}
	for conn := range a.conns {
		if conn != winner {
			conn.Abort()
		}
	}
	a.conns = nil
}

// RegisterTCP binds the client's TCP port (listener + registration
// connection to S, both with address reuse, §4.1) and registers. It
// requires a transport with the full simulated host stack; real-UDP
// transports return ErrTCPUnsupported.
func (c *Client) RegisterTCP(localPort inet.Port, done func(error)) error {
	if c.h == nil {
		return ErrTCPUnsupported
	}
	l, err := c.h.TCPListen(localPort, true, c.handleAccepted)
	if err != nil {
		return err
	}
	c.tcpListener = l
	c.tcpLocalPort = l.Port()
	c.tcpRegDone = done

	conn, err := c.h.TCPDial(c.server, host.DialOpts{LocalPort: c.tcpLocalPort, ReuseAddr: true}, tcp.Callbacks{
		Established: func(cn *tcp.Conn) {
			c.tcpPrivate = cn.Local()
			cn.Write(proto.AppendFrame(nil, &proto.Message{
				Type: proto.TypeRegister, From: c.name, Private: cn.Local(),
			}, c.obf))
		},
		Data: func(cn *tcp.Conn, p []byte) { c.handleServerStream(p) },
		Error: func(cn *tcp.Conn, err error) {
			if !c.tcpRegistered && c.tcpRegDone != nil {
				c.tcpRegDone(err)
			}
		},
	})
	if err != nil {
		l.Close()
		return err
	}
	c.tcpServer = conn
	return nil
}

// TCPRegistered reports whether TCP registration completed.
func (c *Client) TCPRegistered() bool { return c.tcpRegistered }

// PublicTCP returns the client's public TCP endpoint as observed by S.
func (c *Client) PublicTCP() inet.Endpoint { return c.tcpPublic }

// handleServerStream processes frames on the registration connection.
func (c *Client) handleServerStream(p []byte) {
	msgs, err := c.tcpServerDec.Feed(p)
	if err != nil {
		c.tcpServer.Abort()
		return
	}
	for _, m := range msgs {
		switch m.Type {
		case proto.TypeRegisterOK:
			if !c.tcpRegistered {
				c.tcpRegistered = true
				c.tcpPublic = m.Public
				c.tracef("tcp registered: private=%s public=%s", c.tcpPrivate, c.tcpPublic)
				if !c.cfg.DisableRegistrationKeepAlive {
					c.scheduleTCPServerKeepAlive()
				}
				if c.tcpRegDone != nil {
					c.tcpRegDone(nil)
				}
			}
		case proto.TypeConnectDetails:
			c.handleTCPDetails(m)
		case proto.TypeReverseRequest:
			c.handleReverseRequest(m)
		case proto.TypeSeqRequest:
			c.handleSeqRequest(m)
		case proto.TypeSeqGo:
			c.handleSeqGo(m)
		case proto.TypeRelayed:
			c.tcpHandleRelayed(m)
		case proto.TypeError:
			c.tcpServerError(m)
		}
	}
}

// scheduleTCPServerKeepAlive keeps the registration connection's NAT
// session alive (§3.6): without periodic traffic an idle NAT expires
// the TCP mapping and S can no longer signal this client.
func (c *Client) scheduleTCPServerKeepAlive() {
	c.tcpKeepAlive = c.after(c.cfg.KeepAliveInterval, func() {
		if c.closed || c.tcpServer == nil {
			return
		}
		c.tcpServer.Write(proto.AppendFrame(nil, &proto.Message{
			Type: proto.TypeKeepAlive, From: c.name,
		}, c.obf))
		c.scheduleTCPServerKeepAlive()
	})
}

// ConnectTCP starts parallel TCP hole punching toward peer (§4.2).
func (c *Client) ConnectTCP(peer string, cb TCPCallbacks) {
	if !c.tcpRegistered {
		if cb.Failed != nil {
			cb.Failed(peer, ErrNotRegistered)
		}
		return
	}
	if _, busy := c.tcpSessions[peer]; busy {
		if cb.Failed != nil {
			cb.Failed(peer, ErrBusy)
		}
		return
	}
	n := c.nonce()
	a := c.newTCPAttempt(peer, n, cb)
	a.requester = true
	// §4.2 step 1: ask S for help.
	c.tcpServer.Write(proto.AppendFrame(nil, &proto.Message{
		Type: proto.TypeConnectRequest, From: c.name, Target: peer, Nonce: n,
	}, c.obf))
	c.tracef("tcp connect -> %s (nonce %d)", peer, n)
}

func (c *Client) newTCPAttempt(peer string, nonce uint64, cb TCPCallbacks) *tcpAttempt {
	a := &tcpAttempt{
		c: c, peer: peer, nonce: nonce, cb: cb,
		conns: make(map[*tcp.Conn]bool),
	}
	c.tcpAttempts[nonce] = a
	a.deadline = c.after(c.cfg.PunchTimeout, func() { c.tcpAttemptTimeout(a) })
	return a
}

// handleTCPDetails implements §4.2 steps 2-3: on receiving the peer's
// endpoints, dial both of them from the registered local port while
// the listener keeps accepting.
func (c *Client) handleTCPDetails(m *proto.Message) {
	a := c.tcpAttempts[m.Nonce]
	if a == nil {
		a = c.newTCPAttempt(m.From, m.Nonce, c.InboundTCP)
	}
	if a.gotDetails || a.done {
		return
	}
	a.gotDetails = true
	a.pub, a.priv = m.Public, m.Private
	c.tracef("tcp details for %s: public=%s private=%s", a.peer, a.pub, a.priv)
	c.dialCandidate(a, a.pub)
	if a.priv != a.pub && !a.priv.IsZero() {
		c.dialCandidate(a, a.priv)
	}
}

// dialCandidate makes one asynchronous connect attempt toward ep from
// the shared local port, retrying transient failures after
// ConnectRetryInterval (§4.2 step 4).
func (c *Client) dialCandidate(a *tcpAttempt, ep inet.Endpoint) {
	if a.done || c.closed {
		return
	}
	retry := func() {
		if a.done {
			return
		}
		a.retryTimers = append(a.retryTimers, c.after(c.cfg.ConnectRetryInterval, func() {
			c.dialCandidate(a, ep)
		}))
	}
	conn, err := c.h.TCPDial(ep, host.DialOpts{LocalPort: c.tcpLocalPort, ReuseAddr: true}, tcp.Callbacks{
		Established: func(cn *tcp.Conn) {
			// Our side of §4.2 step 5: authenticate by sending the
			// session nonce as a hello.
			cn.Write(proto.AppendFrame(nil, &proto.Message{
				Type: proto.TypePunch, From: c.name, Nonce: a.nonce,
			}, c.obf))
		},
		Data: func(cn *tcp.Conn, p []byte) { c.attemptConnData(a, cn, p) },
		Error: func(cn *tcp.Conn, err error) {
			delete(a.conns, cn)
			switch {
			case errors.Is(err, tcp.ErrAddrInUse):
				// §4.3 second behavior: our connect lost to the listen
				// socket; the accepted socket carries the session.
				// Nothing to do.
			case errors.Is(err, tcp.ErrReset), errors.Is(err, tcp.ErrUnreachable), errors.Is(err, tcp.ErrTimeout):
				// §4.2 step 4: "simply re-tries that connection
				// attempt after a short delay".
				retry()
			}
		},
	})
	if err != nil {
		// Local bind conflict (a previous socket to the same candidate
		// is still closing); retry later.
		retry()
		return
	}
	a.conns[conn] = true
}

// attemptForRemote finds a pending attempt one of whose candidate
// endpoints matches ep.
func (c *Client) attemptForRemote(ep inet.Endpoint) *tcpAttempt {
	for _, a := range c.tcpAttempts {
		if !a.done && a.gotDetails && (a.pub == ep || a.priv == ep) {
			return a
		}
	}
	return nil
}

// handleAccepted runs for every connection delivered by the shared
// listener: punched streams, reverse connections, sequential-punch
// connections, or strays from wrong-host scenarios. The stream is
// authenticated by its first frame (§4.2 step 5).
//
// When both ends take the accept() path (both-Linux simultaneous
// open, §4.4), neither side has a surviving connect socket to speak
// first — so an accepted connection whose remote endpoint matches a
// pending attempt's candidates sends its own hello too.
func (c *Client) handleAccepted(conn *tcp.Conn) {
	dec := &proto.StreamDecoder{}
	authed := false
	authTimer := c.after(c.cfg.AuthTimeout, func() {
		if !authed {
			conn.Abort() // §4.2 step 5: close unauthenticated streams
		}
	})
	if a := c.attemptForRemote(conn.Remote()); a != nil {
		conn.Write(proto.AppendFrame(nil, &proto.Message{
			Type: proto.TypePunch, From: c.name, Nonce: a.nonce,
		}, c.obf))
	}
	conn.OnData(func(cn *tcp.Conn, p []byte) {
		if authed {
			return // session handler replaced this callback; raced data
		}
		msgs, err := dec.Feed(p)
		if err != nil {
			cn.Abort()
			return
		}
		for _, m := range msgs {
			if m.Type != proto.TypePunch || m.From == c.name {
				continue
			}
			a := c.tcpAttempts[m.Nonce]
			if a == nil || a.done {
				continue
			}
			authed = true
			authTimer.Stop()
			cn.Write(proto.AppendFrame(nil, &proto.Message{
				Type: proto.TypePunchAck, From: c.name, Nonce: m.Nonce,
			}, c.obf))
			c.win(a, cn, *dec)
			return
		}
	})
	conn.OnError(func(*tcp.Conn, error) { authTimer.Stop() })
	conn.OnClosed(func(*tcp.Conn) { authTimer.Stop() })
}

// attemptConnData handles frames on a connection we initiated, before
// it is authenticated.
func (c *Client) attemptConnData(a *tcpAttempt, cn *tcp.Conn, p []byte) {
	if a.done {
		return
	}
	dec := &proto.StreamDecoder{}
	msgs, err := dec.Feed(p)
	if err != nil {
		cn.Abort()
		delete(a.conns, cn)
		return
	}
	for _, m := range msgs {
		if m.From == c.name {
			continue // our own hello on a self-connected stream
		}
		switch m.Type {
		case proto.TypePunchAck:
			if m.Nonce == a.nonce {
				c.win(a, cn, *dec)
				return
			}
		case proto.TypePunch:
			// Both ends helloed on a crossed (simultaneous-open)
			// stream: acknowledge and adopt it.
			if m.Nonce == a.nonce {
				cn.Write(proto.AppendFrame(nil, &proto.Message{
					Type: proto.TypePunchAck, From: c.name, Nonce: a.nonce,
				}, c.obf))
				c.win(a, cn, *dec)
				return
			}
		}
	}
}

// win adopts conn as the session stream: "the clients use the first
// successfully authenticated TCP stream" (§4.2 step 5).
func (c *Client) win(a *tcpAttempt, conn *tcp.Conn, dec proto.StreamDecoder) {
	delete(a.conns, conn)
	a.stop(conn)
	delete(c.tcpAttempts, a.nonce)

	via := MethodPublic
	if conn.Remote() == a.priv && a.priv != a.pub {
		via = MethodPrivate
	}
	s := &TCPSession{
		c: c, Peer: a.peer, Conn: conn, Accepted: conn.Accepted,
		Via: via, Nonce: a.nonce, cb: a.cb, dec: dec,
	}
	c.tcpSessions[a.peer] = s
	conn.SetCallbacks(tcp.Callbacks{
		Data: func(cn *tcp.Conn, p []byte) { s.feed(p) },
		Closed: func(cn *tcp.Conn) {
			if !s.closed {
				s.closed = true
				delete(c.tcpSessions, s.Peer)
			}
		},
	})
	c.tracef("tcp session with %s via %s (accepted=%v remote=%s)", a.peer, via, conn.Accepted, conn.Remote())
	if a.cb.Established != nil {
		a.cb.Established(s)
	}
}

func (c *Client) tcpAttemptTimeout(a *tcpAttempt) {
	if a.done {
		return
	}
	a.stop(nil)
	delete(c.tcpAttempts, a.nonce)
	if c.cfg.RelayFallback && c.tcpServer != nil {
		s := &TCPSession{c: c, Peer: a.peer, Via: MethodRelay, Nonce: a.nonce, cb: a.cb}
		c.tcpSessions[a.peer] = s
		c.tracef("tcp punch to %s failed; falling back to relay", a.peer)
		if a.cb.Established != nil {
			a.cb.Established(s)
		}
		return
	}
	c.tracef("tcp punch to %s timed out", a.peer)
	if a.cb.Failed != nil {
		a.cb.Failed(a.peer, ErrPunchTimeout)
	}
}

func (c *Client) tcpServerError(m *proto.Message) {
	for n, a := range c.tcpAttempts {
		if a.peer == m.From && a.requester && !a.gotDetails {
			a.stop(nil)
			delete(c.tcpAttempts, n)
			if a.cb.Failed != nil {
				a.cb.Failed(a.peer, ErrPeerUnknown)
			}
		}
	}
}

// feed decodes session frames into Data callbacks.
func (s *TCPSession) feed(p []byte) {
	msgs, err := s.dec.Feed(p)
	if err != nil {
		s.Conn.Abort()
		return
	}
	for _, m := range msgs {
		switch m.Type {
		case proto.TypeData:
			if m.Nonce == s.Nonce && s.cb.Data != nil {
				s.cb.Data(s, m.Data)
			}
		case proto.TypePunch:
			// Peer's duplicate hello (its ack to us was in flight);
			// re-acknowledge.
			s.Conn.Write(proto.AppendFrame(nil, &proto.Message{
				Type: proto.TypePunchAck, From: s.c.name, Nonce: s.Nonce,
			}, s.c.obf))
		}
	}
}

// OnData replaces the session's data callback.
func (s *TCPSession) OnData(fn func(*TCPSession, []byte)) { s.cb.Data = fn }

// Send transmits one framed message on the session.
func (s *TCPSession) Send(data []byte) error {
	if s.closed {
		return tcp.ErrClosed
	}
	s.seq++
	m := &proto.Message{
		Type: proto.TypeData, From: s.c.name, Nonce: s.Nonce,
		Seq: s.seq, Data: data,
	}
	if s.Via == MethodRelay {
		m.Type = proto.TypeRelayTo
		m.Target = s.Peer
		return s.c.tcpServer.Write(proto.AppendFrame(nil, m, s.c.obf))
	}
	return s.Conn.Write(proto.AppendFrame(nil, m, s.c.obf))
}

// Close closes the session stream gracefully.
func (s *TCPSession) Close() {
	if s.closed {
		return
	}
	s.closed = true
	delete(s.c.tcpSessions, s.Peer)
	if s.Conn != nil {
		s.Conn.Close()
	}
}

// tcpHandleRelayed delivers relayed data for TCP relay sessions.
func (c *Client) tcpHandleRelayed(m *proto.Message) {
	s := c.tcpSessions[m.From]
	if s == nil || s.Via != MethodRelay {
		return
	}
	if s.cb.Data != nil {
		s.cb.Data(s, m.Data)
	}
}

// --- connection reversal (§2.3) ---

// RequestReversal asks peer (behind a NAT) to connect back to this
// client, which must be directly reachable — the §2.3 technique for
// the "only one peer behind a NAT" topology.
func (c *Client) RequestReversal(peer string, cb TCPCallbacks) {
	if !c.tcpRegistered {
		if cb.Failed != nil {
			cb.Failed(peer, ErrNotRegistered)
		}
		return
	}
	n := c.nonce()
	c.newTCPAttempt(peer, n, cb) // waits for the inbound connection
	c.tcpServer.Write(proto.AppendFrame(nil, &proto.Message{
		Type: proto.TypeReverseRequest, From: c.name, Target: peer, Nonce: n,
	}, c.obf))
	c.tracef("reversal request -> %s (nonce %d)", peer, n)
}

// handleReverseRequest performs the reverse connection: dial the
// requester's public endpoint directly (it is reachable; that is the
// premise of §2.3).
func (c *Client) handleReverseRequest(m *proto.Message) {
	a := c.newTCPAttempt(m.From, m.Nonce, c.InboundTCP)
	a.gotDetails = true
	a.pub, a.priv = m.Public, m.Private
	c.tracef("reverse-connecting to %s at %s", m.From, m.Public)
	c.dialCandidate(a, a.pub)
	if a.priv != a.pub && !a.priv.IsZero() {
		c.dialCandidate(a, a.priv)
	}
}

// --- sequential hole punching (§4.5, NatTrav) ---

// SeqHoleDelay is how long the doomed connect is given to push at
// least one SYN through the NATs on its side (§4.5: "too little delay
// risks a lost SYN derailing the process").
const SeqHoleDelay = 500 * time.Millisecond

// ConnectTCPSequential runs the NatTrav-style sequential procedure
// (§4.5): (1) this client informs the peer via S; (2) the peer makes
// a doomed connect() that opens a hole in its NAT; (3) the peer
// listens and signals readiness; (4) this client connects.
func (c *Client) ConnectTCPSequential(peer string, cb TCPCallbacks) {
	if !c.tcpRegistered {
		if cb.Failed != nil {
			cb.Failed(peer, ErrNotRegistered)
		}
		return
	}
	n := c.nonce()
	a := c.newTCPAttempt(peer, n, cb)
	a.requester = true
	a.sequential = true
	c.tcpServer.Write(proto.AppendFrame(nil, &proto.Message{
		Type: proto.TypeSeqRequest, From: c.name, Target: peer, Nonce: n,
	}, c.obf))
	c.tracef("sequential connect -> %s (nonce %d)", peer, n)
}

// handleSeqRequest is the peer side: step 2's doomed connect, then
// step 3's listen + go-signal.
func (c *Client) handleSeqRequest(m *proto.Message) {
	a := c.newTCPAttempt(m.From, m.Nonce, c.InboundTCP)
	a.sequential = true
	a.gotDetails = true
	a.pub, a.priv = m.Public, m.Private

	// Step 2: the doomed connect toward the requester's public
	// endpoint opens an outbound hole in our NAT. We expect it to
	// fail (timeout or RST); its purpose is the hole.
	doomed, err := c.h.TCPDial(m.Public, host.DialOpts{LocalPort: c.tcpLocalPort, ReuseAddr: true}, tcp.Callbacks{})
	if err == nil {
		c.after(SeqHoleDelay, func() {
			doomed.Abort()
			if a.done {
				return
			}
			// Steps 3-4: we are listening (the shared listener); tell
			// the requester to connect.
			c.tcpServer.Write(proto.AppendFrame(nil, &proto.Message{
				Type: proto.TypeSeqGo, From: c.name, Target: a.peer, Nonce: a.nonce,
			}, c.obf))
			c.tracef("sequential: hole opened toward %s, signalling go", a.peer)
		})
	}
}

// handleSeqGo is the requester side of step 4: connect to the peer's
// now-holed public endpoint.
func (c *Client) handleSeqGo(m *proto.Message) {
	a := c.tcpAttempts[m.Nonce]
	if a == nil || a.done {
		return
	}
	a.gotDetails = true
	a.pub, a.priv = m.Public, m.Private
	c.tracef("sequential: go from %s, dialing %s", m.From, m.Public)
	c.dialCandidate(a, a.pub)
}
