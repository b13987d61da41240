package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"natpunch"
	"natpunch/realudp"
	"natpunch/rendezvousapi"
	"natpunch/stream"
	"natpunch/transport"
)

// loopSpec describes one loopback workload: one session, one stream,
// one operation outstanding, all in this process.
type loopSpec struct {
	relay bool // block the direct path and dial relay-first
	lossy bool // drop lossRate of the peers' session datagrams
	rpc   bool // 128-B echo round trips instead of 64 KiB writes
}

var loopSpecs = map[string]loopSpec{
	"bulk":      {},
	"rpc_relay": {relay: true, rpc: true},
	"lossy":     {lossy: true},
}

const (
	chunkSize = 64 << 10 // one bulk op: a 64 KiB Stream.Write
	reqSize   = 128      // one rpc op: a 128-B request and its echo
	// patLen is the period of the byte pattern; a prime above
	// chunkSize, so a chunk delivered at the wrong offset never
	// matches.
	patLen = 100003
	// setup_s is the median of setupProcs×setupsPerProc set-ups, each
	// batch in a fresh process: set-up cost differs more between
	// processes than within one, so one process's median would not
	// repeat from run to run. Half the processes run before the timed
	// phase and half after it, so the sample also spans the host's
	// slower swings.
	setupProcs    = 10
	setupsPerProc = 11
	lossRate      = 1.0 / lossEvery
	// spanCap bounds the spans kept in memory per traced transport;
	// later spans still count in the aggregates.
	spanCap = 20000

	// The session's datagrams on the direct path are natpunch wire
	// messages of type Data: byte 0 is the wire magic, byte 1 the
	// message type. The lossy filter drops only these, so
	// rendezvous, punch and keep-alive traffic is never lost.
	wireMagic    = 0xF0
	wireTypeData = 14
)

// pattern returns patLen+chunkSize seeded bytes whose tail repeats
// the head, so the bytes at stream offset o are
// pattern[o%patLen:][:n] for any n <= chunkSize.
func pattern(seed int64) []byte {
	p := make([]byte, patLen+chunkSize)
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < patLen; i++ {
		p[i] = byte(r.Uint32())
	}
	copy(p[patLen:], p[:chunkSize])
	return p
}

// peerEnd is one named endpoint and the transports under it.
type peerEnd struct {
	rt   *realudp.Transport
	wt   *wrapTransport // nil unless traced or lossy
	loss *dropper       // lossy only
	d    *natpunch.Dialer
}

func (p *peerEnd) seam() transport.Transport {
	if p.wt != nil {
		return p.wt
	}
	return p.rt
}

// world is a rendezvous/relay server and two peers on loopback, with
// one dialed session between them.
type world struct {
	srvRT *realudp.Transport
	srvWT *wrapTransport
	srv   *rendezvousapi.Server
	a, b  peerEnd
	conn  *natpunch.Conn // the dialing side's Conn
	moves atomic.Int32   // path changes seen on either side
	dial  time.Duration
}

// worldOpts selects how a world is built.
type worldOpts struct {
	spec    loopSpec
	streams bool
	wrap    bool // install the tracing wrappers
	seed    int64
	direct  bool // fault: do not block the direct path
}

// newWorld starts a server and two peers and dials alice→bob. The
// accepted Conn arrives on the returned channel.
func newWorld(o worldOpts) (*world, <-chan *natpunch.Conn, error) {
	w := &world{}
	var err error
	if w.srvRT, err = realudp.New("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	var srvSeam transport.Transport = w.srvRT
	if o.wrap {
		w.srvWT = newWrap(w.srvRT, spanCap)
		srvSeam = w.srvWT
	}
	if w.srv, err = rendezvousapi.Serve(srvSeam, 0); err != nil {
		w.close()
		return nil, nil, err
	}
	hook := func(peer, old, new string) { w.moves.Add(1) }
	opts := []natpunch.Option{natpunch.WithOnPathChange(hook)}
	if o.streams {
		opts = append(opts, natpunch.WithStreams())
	}
	if o.spec.relay {
		opts = append(opts, natpunch.WithRelayFirst())
	}
	for i, p := range []*peerEnd{&w.a, &w.b} {
		if p.rt, err = realudp.New("127.0.0.1:0"); err != nil {
			w.close()
			return nil, nil, err
		}
		if o.wrap || o.spec.lossy {
			sc := 0
			if o.wrap {
				sc = spanCap
			}
			p.wt = newWrap(p.rt, sc)
			if o.spec.lossy {
				p.loss = newDropper(o.seed*2 + int64(i))
				p.wt.drop = p.loss.drop
			}
		}
		name := []string{"alice", "bob"}[i]
		if p.d, err = natpunch.Open(p.seam(), name, w.srv.Endpoint(), opts...); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("open %s: %w", name, err)
		}
	}
	if o.spec.relay && !o.direct {
		// Every endpoint shares 127.0.0.1, so the peers are told apart
		// by port: each drops datagrams sourced from the other's
		// socket, and only the server's relay path remains.
		portA := transport.Port(w.a.rt.LocalAddr().Port)
		portB := transport.Port(w.b.rt.LocalAddr().Port)
		w.a.rt.SetPacketFilter(func(src transport.Endpoint) bool { return src.Port != portB })
		w.b.rt.SetPacketFilter(func(src transport.Endpoint) bool { return src.Port != portA })
	}
	ln, err := w.b.d.Listen()
	if err != nil {
		w.close()
		return nil, nil, err
	}
	accepted := make(chan *natpunch.Conn, 1)
	go func() {
		c, err := ln.AcceptConn()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	t0 := time.Now()
	w.conn, err = w.a.d.DialContext(ctx, "bob")
	w.dial = time.Since(t0)
	if err != nil {
		w.close()
		return nil, nil, fmt.Errorf("dial: %w", err)
	}
	return w, accepted, nil
}

// close tears the world down; safe on a partly built world.
func (w *world) close() {
	for _, p := range []*peerEnd{&w.a, &w.b} {
		if p.d != nil {
			p.d.Close()
		}
	}
	if w.srv != nil {
		w.srv.Close()
	}
	for _, rt := range []*realudp.Transport{w.a.rt, w.b.rt, w.srvRT} {
		if rt != nil {
			rt.Close()
		}
	}
}

// wraps returns the world's wrappers with tracers: server, alice, bob.
func (w *world) wraps() []*wrapTransport {
	return []*wrapTransport{w.srvWT, w.a.wt, w.b.wt}
}

func (w *world) setTracing(on bool) {
	for _, wt := range w.wraps() {
		wt.setTracing(on)
	}
}

// dropper drops exactly one of every lossEvery Data datagrams it
// sees, at a position within each block drawn from a generator
// seeded from the run's seed. Stratified this way, a run loses
// exactly lossRate of the session's datagrams rather than a binomial
// count, which keeps the number of loss recoveries, and with it the
// throughput, steady from run to run. It runs in the transport's
// serialized context, so the generator needs no lock; the counters
// are read from outside.
type dropper struct {
	r             *rand.Rand
	next          int64 // index within the block to drop
	data, dropped atomic.Int64
}

const lossEvery = 100 // lossRate = 1/lossEvery

func newDropper(seed int64) *dropper {
	d := &dropper{r: rand.New(rand.NewSource(seed))}
	d.next = d.r.Int63n(lossEvery)
	return d
}

func (d *dropper) drop(p []byte) bool {
	if len(p) < 2 || p[0] != wireMagic || p[1] != wireTypeData {
		return false
	}
	pos := (d.data.Add(1) - 1) % lossEvery
	hit := pos == d.next
	if pos == lossEvery-1 {
		d.next = d.r.Int63n(lossEvery) // the drop in the next block
	}
	if hit {
		d.dropped.Add(1)
	}
	return hit
}

// session is a world plus one stream session on it and the peer
// goroutine that reads (bulk) or echoes (rpc).
type session struct {
	*world
	spec    loopSpec
	pat     []byte
	sa, sb  *stream.Session
	sta     *stream.Stream // alice's end; bob's belongs to peer
	peer    *peerLoop
	written int64 // bytes alice has written (bulk)
	ops     int64 // ops done, warm-up included
	flipAt  int64 // op index whose chunk gets a flipped byte; -1 none
	resp    []byte
}

// peerLoop is bob's side of the stream: a verifying reader for bulk,
// an echo for rpc.
type peerLoop struct {
	got       atomic.Int64 // bytes read and verified
	reads     atomic.Int64
	mismatch  atomic.Int64 // stream offset+1 of the first bad byte
	done      chan struct{}
	endErr    error
	readBytes atomic.Int64
}

// setup builds one complete session and runs its first op.
func setup(o worldOpts, pat []byte, deadline time.Time) (*session, error) {
	o.streams = true
	w, accepted, err := newWorld(o)
	if err != nil {
		return nil, err
	}
	s := &session{world: w, spec: o.spec, pat: pat, flipAt: -1, resp: make([]byte, reqSize)}
	fail := func(err error) (*session, error) {
		s.close()
		return nil, err
	}
	if err := s.checkPath(); err != nil {
		return fail(err)
	}
	if s.sa, err = stream.NewSession(w.conn); err != nil {
		return fail(err)
	}
	if s.sta, err = s.sa.OpenStream(); err != nil {
		return fail(err)
	}
	s.sta.SetDeadline(deadline)
	type bobSide struct {
		sb   *stream.Session
		peer *peerLoop
		err  error
	}
	ready := make(chan bobSide, 1)
	go func() {
		c, ok := <-accepted
		if !ok {
			ready <- bobSide{err: errors.New("accept failed")}
			return
		}
		sb, err := stream.NewSession(c)
		if err != nil {
			ready <- bobSide{err: err}
			return
		}
		st, err := sb.AcceptStream()
		if err != nil {
			sb.Close()
			ready <- bobSide{err: err}
			return
		}
		st.SetDeadline(deadline)
		pl := &peerLoop{done: make(chan struct{})}
		ready <- bobSide{sb: sb, peer: pl}
		if o.spec.rpc {
			pl.echo(st)
		} else {
			pl.verify(st, pat)
		}
	}()
	// The first op opens the stream on bob's side. An rpc op needs
	// bob's echo, which starts only once the stream is accepted, so
	// its wait runs concurrently with it.
	opErr := make(chan error, 1)
	go func() { opErr <- s.op() }()
	select {
	case bs := <-ready:
		if bs.err != nil {
			return fail(bs.err)
		}
		s.sb, s.peer = bs.sb, bs.peer
	case <-time.After(10 * time.Second):
		return fail(errors.New("peer never accepted the stream"))
	}
	if err := <-opErr; err != nil {
		return fail(err)
	}
	if !o.spec.rpc {
		if err := s.waitDelivered(10 * time.Second); err != nil {
			return fail(err)
		}
	}
	return s, nil
}

// checkPath asserts the session is on the workload's path class.
func (s *session) checkPath() error {
	p := s.conn.Path()
	if s.spec.relay != (p == "relay") {
		return fmt.Errorf("session path is %q, want relay=%v", p, s.spec.relay)
	}
	return nil
}

// op runs one operation: a 64 KiB write, or a 128-B round trip whose
// echo must equal the request.
func (s *session) op() error {
	defer func() { s.ops++ }()
	if s.spec.rpc {
		k := (s.ops * reqSize) % patLen
		req := s.pat[k : k+reqSize]
		if _, err := s.sta.Write(req); err != nil {
			return err
		}
		if _, err := io.ReadFull(s.sta, s.resp); err != nil {
			return err
		}
		if !bytes.Equal(s.resp, req) {
			return fmt.Errorf("echo %d differs from its request", s.ops)
		}
		return nil
	}
	k := s.written % patLen
	chunk := s.pat[k : k+chunkSize]
	if s.ops == s.flipAt {
		chunk = append([]byte(nil), chunk...)
		chunk[chunkSize/3] ^= 0x5a
	}
	n, err := s.sta.Write(chunk)
	s.written += int64(n)
	return err
}

// waitDelivered waits until bob has read every byte alice wrote.
func (s *session) waitDelivered(limit time.Duration) error {
	end := time.Now().Add(limit)
	for s.peer.got.Load() < s.written {
		if m := s.peer.mismatch.Load(); m != 0 {
			return fmt.Errorf("byte at stream offset %d differs from the pattern", m-1)
		}
		select {
		case <-s.peer.done:
			return fmt.Errorf("reader stopped after %d of %d bytes: %v", s.peer.got.Load(), s.written, s.peer.endErr)
		default:
		}
		if time.Now().After(end) {
			return fmt.Errorf("only %d of %d bytes delivered after %v", s.peer.got.Load(), s.written, limit)
		}
		time.Sleep(time.Millisecond)
	}
	if m := s.peer.mismatch.Load(); m != 0 {
		return fmt.Errorf("byte at stream offset %d differs from the pattern", m-1)
	}
	return nil
}

// verify reads the stream to its end, checking every byte against
// the pattern. It stops at the first mismatch.
func (pl *peerLoop) verify(st *stream.Stream, pat []byte) {
	defer close(pl.done)
	buf := make([]byte, chunkSize)
	var off int64
	for {
		n, err := st.Read(buf)
		if n > 0 {
			pl.reads.Add(1)
			pl.readBytes.Add(int64(n))
			k := off % patLen
			if !bytes.Equal(buf[:n], pat[k:k+int64(n)]) {
				for i := 0; i < n; i++ {
					if buf[i] != pat[k+int64(i)] {
						pl.mismatch.Store(off + int64(i) + 1)
						break
					}
				}
				pl.endErr = errors.New("pattern mismatch")
				st.Reset() // fail the writer now instead of at its deadline
				return
			}
			off += int64(n)
			pl.got.Store(off)
		}
		if err != nil {
			pl.endErr = err
			return
		}
	}
}

// echo writes every 128-B request back unchanged.
func (pl *peerLoop) echo(st *stream.Stream) {
	defer close(pl.done)
	buf := make([]byte, reqSize)
	for {
		if _, err := io.ReadFull(st, buf); err != nil {
			pl.endErr = err
			return
		}
		pl.reads.Add(1)
		pl.readBytes.Add(reqSize)
		if _, err := st.Write(buf); err != nil {
			pl.endErr = err
			return
		}
	}
}

// close ends the session and waits for bob's goroutine.
func (s *session) close() {
	if s.sa != nil {
		s.sa.Close()
	}
	if s.sb != nil {
		s.sb.Close()
	}
	s.world.close()
	if s.peer != nil {
		select {
		case <-s.peer.done:
		case <-time.After(5 * time.Second):
		}
	}
}

// usefulBytes is the payload a phase of n ops delivered: chunks for
// bulk, request plus echo for rpc.
func (s *session) usefulBytes(n int64) float64 {
	if s.spec.rpc {
		return float64(n) * 2 * reqSize
	}
	return float64(n) * chunkSize
}

// timeSetups builds and tears down n sessions of spec in this
// process and returns each set-up's time in seconds and its dial's in
// milliseconds.
func timeSetups(cfg config, spec loopSpec, n int) (setups, dials []float64, err error) {
	pat := pattern(cfg.seed)
	wo := worldOpts{spec: spec, seed: cfg.seed}
	deadline := time.Now().Add(time.Minute)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		s, err := setup(wo, pat, deadline)
		el := time.Since(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, el.Seconds())
		dials = append(dials, float64(s.dial)/1e6)
		// Tear the world down and collect it before the next one, so
		// no set-up shares the machine with another's sockets or pays
		// for its garbage.
		s.close()
		runtime.GC()
	}
	return setups, dials, nil
}

// setupSample is what one set-up probe process reports.
type setupSample struct {
	Setups []float64 `json:"setup_s"`
	Dials  []float64 `json:"dial_ms"`
}

// runSetupProbe is the body of a set-up probe process: it times
// setupsPerProc set-ups and prints them as one JSON line.
func runSetupProbe(cfg config) error {
	spec, ok := loopSpecs[cfg.workload]
	if !ok {
		return fmt.Errorf("no set-up probe for workload %q", cfg.workload)
	}
	setups, dials, err := timeSetups(cfg, spec, setupsPerProc)
	if err != nil {
		return err
	}
	line, err := json.Marshal(setupSample{setups, dials})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// sampleSetups gathers set-up times from procs probe processes of
// this benchmark. Without an executable to start (the self-test), the
// set-ups run in this process.
func sampleSetups(cfg config, spec loopSpec, procs int) (setups, dials []float64, err error) {
	if cfg.self == "" {
		return timeSetups(cfg, spec, setupsPerProc)
	}
	for i := 0; i < procs; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
		out, err := exec.CommandContext(ctx, cfg.self, "-setup-probe", "-workload", cfg.workload,
			"-seed", strconv.FormatInt(cfg.seed, 10)).Output()
		cancel()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up probe: %w", err)
		}
		var smp setupSample
		if err := json.Unmarshal([]byte(lastLine(string(out))), &smp); err != nil {
			return nil, nil, fmt.Errorf("set-up probe output: %w", err)
		}
		setups = append(setups, smp.Setups...)
		dials = append(dials, smp.Dials...)
	}
	return setups, dials, nil
}

// runLoopback runs one loopback workload: set-up samples, one more
// set-up kept for the timed phase(s), then the correctness checks.
func runLoopback(cfg config, spec loopSpec) *outcome {
	o := &outcome{metrics: newMetrics(cfg.trace)}
	pat := pattern(cfg.seed)
	wo := worldOpts{spec: spec, wrap: cfg.trace, seed: cfg.seed, direct: cfg.faults.allowDirect}
	dur := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		// The traced run has an untraced and a traced phase; halving
		// them keeps it as long as an untraced run.
		dur = max(dur/2, time.Second)
	}
	// A stuck stream fails its op at this deadline, well inside the
	// time a run may take.
	deadline := time.Now().Add(time.Duration(cfg.seconds)*time.Second + time.Minute)

	setups, dials, err := sampleSetups(cfg, spec, setupProcs/2)
	if err != nil {
		o.attempted, o.failed = 1, 1
		o.fail("%v", err)
		return o
	}
	s, err := setup(wo, pat, deadline)
	if err != nil {
		o.attempted, o.failed = 1, 1
		o.fail("set-up: %v", err)
		return o
	}
	defer s.close()
	s.moves.Store(0)
	if spec.lossy {
		for _, wt := range []*wrapTransport{s.a.wt, s.b.wt} {
			wt.dropOn.Store(true)
		}
	}
	if cfg.faults.flipByte {
		s.flipAt = s.ops + 2
	}

	expect := 40000 * int(dur.Seconds())
	if !spec.rpc {
		expect = 2000 * int(dur.Seconds())
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st0 := s.srv.Stats()
	r0, rb0 := s.peer.reads.Load(), s.peer.readBytes.Load()
	pa, err := runClosedLoop(dur, expect, s.op)
	runtime.ReadMemStats(&ms1)
	st1 := s.srv.Stats()
	r1, rb1 := s.peer.reads.Load(), s.peer.readBytes.Load()
	o.attempted, o.failed = pa.ops+pa.failed, pa.failed
	if err != nil {
		o.fail("op %d: %v", s.ops-1, err)
	}

	var pb *phase
	var snaps []traceSnap
	if cfg.trace && err == nil {
		s.setTracing(true)
		pb, err = runClosedLoop(dur, expect, s.op)
		s.setTracing(false)
		o.attempted += pb.ops + pb.failed
		o.failed += pb.failed
		if err != nil {
			o.fail("traced op %d: %v", s.ops-1, err)
		}
		for _, wt := range s.wraps() {
			snaps = append(snaps, wt.snapshot())
		}
	}

	// Correctness: every byte or echo verified, the path class held
	// for the whole run, and the relay carried exactly what the path
	// class says.
	if !spec.rpc {
		if err := s.waitDelivered(30 * time.Second); err != nil {
			o.fail("%v", err)
		}
	}
	if err := s.checkPath(); err != nil {
		o.fail("%v", err)
	}
	if n := s.moves.Load(); n != 0 {
		o.fail("session changed path %d times during the run", n)
	}
	relayed := st1.RelayedMessages - st0.RelayedMessages
	if spec.relay && relayed < uint64(2*pa.ops) {
		o.fail("relay forwarded %d messages for %d round trips", relayed, pa.ops)
	}
	if !spec.relay && relayed != 0 {
		o.fail("relay forwarded %d messages on a direct session", relayed)
	}
	if spec.lossy {
		checkLoss(o, s)
	}
	if cfg.self != "" {
		more, moreDials, err := sampleSetups(cfg, spec, setupProcs-setupProcs/2)
		if err != nil {
			o.fail("%v", err)
		}
		setups = append(setups, more...)
		dials = append(dials, moreDials...)
	}

	if !cfg.trace {
		m := o.metrics
		m["ops_per_s"] = pa.rate()
		m["op_p50_us"] = quantile(pa.lat, 0.50) / 1e3
		m["op_p95_us"] = quantile(pa.lat, 0.95) / 1e3
		m["cpu_ns_per_op"] = pa.cpuPerOp()
		m["peak_rss_MB"] = peakRSSMB()
		m["setup_s"] = median(setups)
		m["ok_share"] = 1 - float64(o.failed)/float64(o.attempted)
		o.notes = append(o.notes, fmt.Sprintf("%d ops in %.2fs over %d windows; p95 has %d samples beyond it; %d set-ups",
			pa.ops, pa.wall.Seconds(), len(pa.windows), len(pa.lat)-int(0.95*float64(len(pa.lat))), len(setups)))
		var ws []string
		for _, w := range pa.windows {
			ws = append(ws, fmt.Sprintf("%.0f", float64(w.ops)/w.wall.Seconds()))
		}
		o.notes = append(o.notes, "window rates: "+strings.Join(ws, " "))
		return o
	}
	if pb == nil {
		return o
	}

	m := o.metrics
	peers := snaps[1]
	peers.add(snaps[2])
	srv := snaps[0]
	bops := float64(pb.ops)
	aops := float64(pa.ops)
	m["realudp.tx_dgrams_per_op"] = float64(peers.txDgrams) / bops
	m["realudp.rx_dgrams_per_op"] = float64(peers.rxDgrams) / bops
	if peers.txDgrams > 0 {
		m["realudp.tx_bytes_per_dgram"] = float64(peers.txBytes) / float64(peers.txDgrams)
	}
	m["realudp.send_ns"] = peers.meanNs(kindSend, false)
	m["natpunch.rx_self_ns_per_dgram"] = peers.meanNs(kindRecv, true)
	m["natpunch.invoke_ns"] = peers.meanNs(kindInvoke, false)
	m["natpunch.dial_ms"] = median(dials)
	sent := float64(snaps[1].txBytes)
	if spec.rpc {
		sent = float64(peers.txBytes)
	}
	if sent > 0 {
		m["stream.wire_efficiency"] = s.usefulBytes(pb.ops) / sent
	}
	m["stream.timer_arms_per_op"] = float64(peers.timerArms) / bops
	m["stream.timer_fires_per_op"] = float64(peers.timerFires) / bops
	if r1 > r0 {
		m["stream.bytes_per_read"] = float64(rb1-rb0) / float64(r1-r0)
	}
	m["stream.srtt_us"] = float64(s.sa.RTT()) / 1e3
	goodput := s.usefulBytes(1) * pa.rate() / 1e6
	m["stream.goodput_MBps"] = goodput
	m["runtime.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / aops
	m["runtime.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / aops
	m["runtime.gc_per_op"] = float64(ms1.NumGC-ms0.NumGC) / aops
	m["relay.msgs_per_op"] = float64(relayed) / aops
	m["relay.bytes_per_op"] = float64(st1.RelayedBytes-st0.RelayedBytes) / aops
	m["relay.errors"] = float64(st1.Errors - st0.Errors)
	m["relay.fwd_self_ns_per_dgram"] = srv.meanNs(kindRecv, true)
	m["proc.cpu_util"] = pa.cpuPerOp() * pa.rate() / float64(runtime.NumCPU()) / 1e9
	if ra := pa.rate(); ra > 0 {
		m["trace.overhead_share"] = (ra - pb.rate()) / ra
	}

	// Ladder calibration: the raw socket rung and the facade datagram
	// rung on this workload's path class.
	raw, err := rawRung(true, time.Second)
	if err != nil {
		o.fail("batched raw rung: %v", err)
	} else {
		m["realudp.raw_MBps_batched"] = raw
		m["stream.share_of_raw"] = goodput / raw
	}
	if m["realudp.raw_MBps_portable"], err = rawRung(false, time.Second); err != nil {
		o.fail("portable raw rung: %v", err)
	}
	rtt, err := echoRung(spec, time.Second)
	if err != nil {
		o.fail("datagram echo rung: %v", err)
	}
	m["natpunch.dgram_rtt_us"] = rtt

	if path, err := writeSpans(cfg, snaps); err != nil {
		o.fail("writing spans: %v", err)
	} else {
		o.notes = append(o.notes, "spans written to "+path)
	}
	return o
}

// checkLoss asserts the lossy filter really dropped about lossRate of
// the session datagrams it saw.
func checkLoss(o *outcome, s *session) {
	var data, dropped int64
	for _, p := range []*peerEnd{&s.a, &s.b} {
		data += p.loss.data.Load()
		dropped += p.loss.dropped.Load()
	}
	if share := float64(dropped) / float64(max(data, 1)); dropped == 0 || share < lossRate/2 || share > lossRate*2 {
		o.fail("loss filter dropped %d of %d session datagrams, want about %.0f%%", dropped, data, lossRate*100)
	}
}
