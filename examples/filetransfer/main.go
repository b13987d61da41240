// File transfer example: a bulk reliable stream between two peers
// behind NATs. The peers punch a UDP session through the public
// Dialer/Listener/Conn API (WithStreams) and carry a natpunch/stream
// session over it, transferring 256 KiB verified with a FNV hash. It
// runs once between well-behaved NATs, where the stream rides the
// punched direct path (§3.4), and once between symmetric NATs, where
// punching fails (§5.1) and the same stream rides the §2.2 relay.
package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"natpunch"
	"natpunch/rendezvousapi"
	"natpunch/simnet"
	"natpunch/stream"
)

const fileSize = 256 << 10

func transfer(nat func() simnet.NAT) {
	world := simnet.NewWorld(5)
	defer world.Close()
	core := world.Core()
	s := core.AddHost("S", "18.181.0.31")
	server, err := rendezvousapi.Serve(s.Transport(), 1234)
	check(err)
	realmA := core.AddSite("NAT-A", nat(), "155.99.25.11", "10.0.0.0/24")
	realmB := core.AddSite("NAT-B", nat(), "138.76.29.7", "10.1.1.0/24")
	hostA := realmA.AddHost("A", "10.0.0.1")
	hostB := realmB.AddHost("B", "10.1.1.3")

	opts := []natpunch.Option{
		natpunch.WithStreams(), natpunch.WithRelayFallback(),
		natpunch.WithPunchTimeout(2 * time.Second), natpunch.WithLocalPort(4321),
	}
	sender, err := natpunch.Open(hostA.Transport(), "sender", server.Endpoint(), opts...)
	check(err)
	defer sender.Close()
	receiver, err := natpunch.Open(hostB.Transport(), "receiver", server.Endpoint(), opts...)
	check(err)
	defer receiver.Close()

	// Deterministic pseudo-file.
	file := make([]byte, fileSize)
	for i := range file {
		file[i] = byte(i*7 + i>>8)
	}
	want := fnv.New64a()
	want.Write(file)

	ln, err := receiver.Listen()
	check(err)
	type summary struct {
		received int
		ok       bool
		path     string
	}
	done := make(chan summary, 1)
	go func() {
		conn, err := ln.AcceptConn()
		if err != nil {
			done <- summary{}
			return
		}
		sess, err := stream.NewSession(conn)
		if err != nil {
			done <- summary{}
			return
		}
		defer sess.Close()
		st, err := sess.AcceptStream()
		if err != nil {
			done <- summary{}
			return
		}
		st.SetReadDeadline(time.Now().Add(60 * time.Second))
		got := fnv.New64a()
		n, _ := io.Copy(got, st)
		done <- summary{int(n), n == fileSize && got.Sum64() == want.Sum64(), conn.Path()}
	}()

	start := world.Now()
	conn, err := sender.Dial("receiver")
	check(err)
	fmt.Printf("  sender:   stream via %s to %v\n", conn.Path(), conn.RemoteAddr())
	sess, err := stream.NewSession(conn)
	check(err)
	defer sess.Close()
	st, err := sess.OpenStream()
	check(err)
	st.SetWriteDeadline(time.Now().Add(60 * time.Second))
	// Send in 8 KiB application chunks, then half-close so the
	// receiver sees EOF after the last byte.
	for off := 0; off < len(file); off += 8 << 10 {
		end := min(off+8<<10, len(file))
		_, err := st.Write(file[off:end])
		check(err)
	}
	check(st.CloseWrite())
	sum := <-done
	fmt.Printf("  receiver: stream via %s\n", sum.path)
	fmt.Printf("  %d/%d bytes, hash match: %v, virtual transfer time %v\n",
		sum.received, fileSize, sum.ok, world.Now()-start)
}

func main() {
	fmt.Println("Stream file transfer over punched UDP (256 KiB):")
	fmt.Println("Cone NATs: punched direct path (§3.4):")
	transfer(simnet.Cone)
	fmt.Println("Symmetric NATs: punching fails, relay through S (§2.2, §5.1):")
	transfer(simnet.Symmetric)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
