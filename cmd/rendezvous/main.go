// Command rendezvous runs the real-network rendezvous server over
// UDP — the well-known server S of §3.1 that punching clients
// register with — using the same engine the simulator validates,
// served over a natpunch/realudp transport.
//
// A deployment can split and replicate the tier:
//
//	# one monolithic server
//	go run ./cmd/rendezvous -listen 0.0.0.0:7000 -advertise 203.0.113.7:7000
//
//	# two federated servers (run on separate hosts; join either way)
//	go run ./cmd/rendezvous -listen 0.0.0.0:7000 -advertise 203.0.113.7:7000
//	go run ./cmd/rendezvous -listen 0.0.0.0:7000 -advertise 203.0.113.8:7000 \
//	    -join 203.0.113.7:7000
//
//	# a standalone §2.2 relay host (clients: WithRelayServers)
//	go run ./cmd/rendezvous -listen 0.0.0.0:7001 -advertise 203.0.113.9:7001 \
//	    -relay-only
//
// Clients pool federated servers with natpunch.Servers(...); each
// client's home server is chosen by stable hashing of its name and
// the rest of the pool is its failover order.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"natpunch/realudp"
	"natpunch/relayapi"
	"natpunch/rendezvousapi"
	"natpunch/transport"
)

func main() {
	listen := flag.String("listen", "0.0.0.0:7000", "UDP address to listen on")
	advertise := flag.String("advertise", "", "endpoint to advertise to clients and peers (required for wildcard binds reachable from elsewhere)")
	join := flag.String("join", "", "comma-separated federation peers to join (host:port,...)")
	relayOnly := flag.Bool("relay-only", false, "serve only the standalone §2.2 relay surface (registration, keep-alives, relaying)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tr, err := realudp.New(*listen)
	if err != nil {
		fail(err)
	}

	var adv transport.Endpoint
	if *advertise != "" {
		adv, err = realudp.ResolveEndpoint(*advertise)
		if err != nil {
			fail(err)
		}
	}
	var peers []transport.Endpoint
	if *join != "" {
		for _, p := range strings.Split(*join, ",") {
			ep, err := realudp.ResolveEndpoint(strings.TrimSpace(p))
			if err != nil {
				fail(err)
			}
			peers = append(peers, ep)
		}
	}

	if *relayOnly {
		if len(peers) > 0 {
			// Relay reachability comes from every client registering
			// with every relay host, not from federation; a silently
			// ignored -join would mislead the operator.
			fail(fmt.Errorf("-relay-only does not federate; drop -join (clients list relay hosts via WithRelayServers)"))
		}
		var opts []relayapi.ServeOption
		if !adv.IsZero() {
			opts = append(opts, relayapi.WithAdvertise(adv))
		}
		srv, err := relayapi.Serve(tr, 0, opts...)
		if err != nil {
			fail(err)
		}
		fmt.Printf("relay server listening on %s, advertising %s\n", tr.LocalAddr(), srv.Endpoint())
		awaitInterrupt()
		st := srv.Stats()
		fmt.Printf("served: %d registrations, %d relayed messages (%d bytes)\n",
			st.RegistrationsUDP, st.RelayedMessages, st.RelayedBytes)
		srv.Close()
		tr.Close()
		return
	}

	var opts []rendezvousapi.ServeOption
	if !adv.IsZero() {
		opts = append(opts, rendezvousapi.WithAdvertise(adv))
	}
	opts = append(opts, rendezvousapi.WithPeers(peers...))
	srv, err := rendezvousapi.Serve(tr, 0, opts...)
	if err != nil {
		fail(err)
	}
	fmt.Printf("rendezvous server listening on %s, advertising %s\n", tr.LocalAddr(), srv.Endpoint())
	if len(peers) > 0 {
		fmt.Printf("federated with %d peer(s): %v\n", len(peers), peers)
	}
	awaitInterrupt()
	st := srv.Stats()
	fmt.Printf("served: %d registrations, %d connect requests, %d negotiations, %d relayed messages, %d fed records, %d fed forwards\n",
		st.RegistrationsUDP, st.ConnectRequests, st.NegotiateRequests, st.RelayedMessages,
		st.FedRecords, st.FedForwards)
	srv.Close()
	tr.Close()
}

func awaitInterrupt() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
}
