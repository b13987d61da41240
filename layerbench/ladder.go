package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"natpunch/realudp"
)

// rawDgram is the ladder's datagram size: the stream engine's default
// MaxDatagram, so the raw rung moves the datagrams the stream does.
const rawDgram = 1152

// rawRung measures the bottom rung of the ladder: one-way bytes per
// second between two loopback sockets, batched through
// realudp.BatchConn (sendmmsg/recvmmsg) or portable (one syscall per
// datagram), in MB/s. The sender stays at most rawAhead datagrams
// ahead of the receiver, so socket buffers never overflow.
func rawRung(batched bool, d time.Duration) (float64, error) {
	const burst = 16
	const rawAhead = 256
	lo := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	rx, err := net.ListenUDP("udp4", lo)
	if err != nil {
		return 0, err
	}
	tx, err := net.ListenUDP("udp4", lo)
	if err != nil {
		rx.Close()
		return 0, err
	}
	defer tx.Close()
	rx.SetReadBuffer(4 << 20)
	tx.SetWriteBuffer(4 << 20)
	rbc, err := realudp.NewBatchConn(rx)
	if err != nil {
		rx.Close()
		return 0, err
	}
	tbc, err := realudp.NewBatchConn(tx)
	if err != nil {
		rx.Close()
		return 0, err
	}
	dst := rx.LocalAddr().(*net.UDPAddr).AddrPort()

	var got, gotBytes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if !batched {
			buf := make([]byte, 2048)
			for {
				n, _, err := rx.ReadFromUDPAddrPort(buf)
				if err != nil {
					return
				}
				gotBytes.Add(int64(n))
				got.Add(1)
			}
		}
		bufs := make([][]byte, 32)
		for i := range bufs {
			bufs[i] = make([]byte, 2048)
		}
		ms := make([]realudp.Datagram, len(bufs))
		for {
			for i := range ms {
				ms[i] = realudp.Datagram{Payload: bufs[i]}
			}
			n, err := rbc.ReadBatch(ms)
			if err != nil {
				return
			}
			var b int64
			for i := 0; i < n; i++ {
				b += int64(len(ms[i].Payload))
			}
			gotBytes.Add(b)
			got.Add(int64(n))
		}
	}()

	payload := make([]byte, rawDgram)
	msgs := make([]realudp.Datagram, burst)
	for i := range msgs {
		msgs[i] = realudp.Datagram{Addr: dst, Payload: payload}
	}
	// waitFor spins until the receiver has counted target datagrams,
	// giving up after 50ms without progress (a lost datagram).
	waitFor := func(target int64) {
		last, stall := got.Load(), time.Now()
		for got.Load() < target {
			runtime.Gosched()
			if cur := got.Load(); cur != last {
				last, stall = cur, time.Now()
			} else if time.Since(stall) > 50*time.Millisecond {
				return
			}
		}
	}
	start := time.Now()
	var sent int64
	for time.Since(start) < d {
		if batched {
			if _, err := tbc.WriteBatch(msgs); err != nil {
				break
			}
		} else {
			for range msgs {
				if _, err := tx.WriteToUDPAddrPort(payload, dst); err != nil {
					break
				}
			}
		}
		sent += burst
		waitFor(sent - rawAhead)
	}
	waitFor(sent)
	el := time.Since(start)
	rx.Close()
	wg.Wait()
	if gotBytes.Load() == 0 {
		return 0, errors.New("no datagram arrived")
	}
	return float64(gotBytes.Load()) / el.Seconds() / 1e6, nil
}

// echoRung measures the facade datagram rung: the p50 round trip in
// microseconds of a 128-B datagram echoed over an uncarried Conn on
// the workload's path class, with no stream layer.
func echoRung(spec loopSpec, d time.Duration) (float64, error) {
	w, accepted, err := newWorld(worldOpts{spec: loopSpec{relay: spec.relay}})
	if err != nil {
		return 0, err
	}
	if (w.conn.Path() == "relay") != spec.relay {
		w.close()
		return 0, fmt.Errorf("echo rung landed on path %q", w.conn.Path())
	}
	var c interface {
		Read([]byte) (int, error)
		Write([]byte) (int, error)
	}
	select {
	case ac, ok := <-accepted:
		if !ok {
			w.close()
			return 0, errors.New("accept failed")
		}
		c = ac
	case <-time.After(10 * time.Second):
		w.close()
		return 0, errors.New("peer never accepted")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		for {
			n, err := c.Read(buf)
			if err != nil {
				return
			}
			if _, err := c.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	defer func() {
		w.close()
		<-done
	}()
	req := make([]byte, reqSize)
	resp := make([]byte, 2048)
	var rtts []int64
	lost := 0
	start := time.Now()
	for time.Since(start) < d {
		w.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		t0 := time.Now()
		if _, err := w.conn.Write(req); err != nil {
			return 0, err
		}
		if _, err := w.conn.Read(resp); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) && lost < 10 {
				lost++ // UDP may drop a datagram; a few losses are allowed
				continue
			}
			return 0, err
		}
		rtts = append(rtts, int64(time.Since(t0)))
	}
	slices.Sort(rtts)
	return quantile(rtts, 0.5) / 1e3, nil
}

// spanLine is one span as written to the span file.
type spanLine struct {
	Transport string `json:"transport"`
	Index     int    `json:"index"`
	Kind      string `json:"kind"`
	Parent    int32  `json:"parent"`
	StartNs   int64  `json:"start_ns"`
	EndNs     int64  `json:"end_ns"`
}

// writeSpans writes the traced transports' kept spans (server, alice,
// bob) as JSON lines under cfg.outDir.
func writeSpans(cfg config, snaps []traceSnap) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	names := []string{"server", "alice", "bob"}
	for i, s := range snaps {
		for j, sp := range s.spans {
			if sp.End == 0 {
				continue // still open when tracing stopped
			}
			if err := enc.Encode(spanLine{names[i], j, kindNames[sp.Kind], sp.Parent, sp.Start, sp.End}); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
