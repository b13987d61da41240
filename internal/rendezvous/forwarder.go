package rendezvous

import (
	"natpunch/internal/inet"
	"natpunch/internal/proto"
)

// The forwarder service: §3.2 step 2's connection-request forwarding,
// §2.3 connection reversal, and §4.5 sequential-punch signalling.
// Each request resolves its target through the registry (or the TCP
// client table) and delivers through the federation-aware deliver(),
// so the same code introduces peers homed on one server or on two.

// forwardDetails implements §3.2 step 2: "S replies to A with a
// message containing B's public and private endpoints. At the same
// time, S uses its session with B to send B a connection request
// message containing A's public and private endpoints." from is the
// observed source of A's request — authoritative for A's public
// endpoint (§3.1) and always reachable, since the request itself just
// traversed A's NAT.
func (s *Server) forwardDetails(from inet.Endpoint, m *proto.Message, viaTCP bool) {
	if viaTCP {
		a, aok := s.tcpc[m.From]
		b, bok := s.tcpc[m.Target]
		if !aok || !bok {
			s.fail(from, m, true)
			return
		}
		s.sendTCP(a, &proto.Message{
			Type: proto.TypeConnectDetails, From: m.Target, Target: m.From,
			Nonce: m.Nonce, Requester: true,
			Public: b.public, Private: b.private,
		})
		s.sendTCP(b, &proto.Message{
			Type: proto.TypeConnectDetails, From: m.From, Target: m.Target,
			Nonce: m.Nonce, Requester: false,
			Public: a.public, Private: a.private,
		})
		s.tracef("S: introduced %s <-> %s over TCP (nonce %d)", m.From, m.Target, m.Nonce)
		return
	}
	now := s.now()
	a, aok := s.reg.get(m.From, now)
	b, bok := s.reg.get(m.Target, now)
	if !aok || !bok {
		s.fail(from, m, false)
		return
	}
	// Both introductions go through the scratch skeleton sequentially:
	// sendUDP/deliver fully encode before returning, so the second
	// fill cannot clobber the first in flight.
	out := &s.scratchMsg
	*out = proto.Message{
		Type: proto.TypeConnectDetails, From: m.Target, Target: m.From,
		Nonce: m.Nonce, Requester: true,
		Public: b.Public, Private: b.Private,
	}
	s.sendUDP(from, out)
	*out = proto.Message{
		Type: proto.TypeConnectDetails, From: m.From, Target: m.Target,
		Nonce: m.Nonce, Requester: false,
		Public: from, Private: a.Private,
	}
	s.deliver(b, out)
	if s.Trace != nil {
		s.tracef("S: introduced %s <-> %s (nonce %d)", m.From, m.Target, m.Nonce)
	}
}

// reverse implements §2.3: B (who cannot be reached directly) relays
// a connection request through S asking the peer to attempt a
// "reverse" connection back to B.
func (s *Server) reverse(from inet.Endpoint, m *proto.Message) {
	out := &s.scratchMsg
	*out = proto.Message{
		Type: proto.TypeReverseRequest, From: m.From, Target: m.Target,
		Nonce: m.Nonce,
	}
	if b, ok := s.tcpc[m.Target]; ok {
		a, aok := s.tcpc[m.From]
		if !aok {
			s.stats.Errors++
			return
		}
		s.stats.ReversalRequests++
		out.Public, out.Private = a.public, a.private
		s.sendTCP(b, out)
		return
	}
	now := s.now()
	a, aok := s.reg.get(m.From, now)
	b, bok := s.reg.get(m.Target, now)
	if !aok || !bok {
		s.stats.Errors++
		return
	}
	s.stats.ReversalRequests++
	out.Public, out.Private = a.Public, a.Private
	if a.Local() {
		out.Public = from // observed, authoritative (§3.1)
	}
	s.deliver(b, out)
}

// seqSignal forwards sequential hole punching coordination (§4.5),
// attaching the sender's registered TCP endpoints. TCP-surface only.
func (s *Server) seqSignal(m *proto.Message) {
	b, ok := s.tcpc[m.Target]
	a, aok := s.tcpc[m.From]
	if !ok || !aok {
		s.stats.Errors++
		return
	}
	s.stats.SeqSignals++
	s.sendTCP(b, &proto.Message{
		Type: m.Type, From: m.From, Target: m.Target, Nonce: m.Nonce,
		Public: a.public, Private: a.private,
	})
}
