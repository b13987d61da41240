package main

import (
	"math/rand"
	"sync/atomic"
	"time"

	"natpunch/transport"
)

// wrapTransport is the benchmark's own transport.Transport around a
// realudp transport. With tracing on it times and counts every
// SendTo, OnRecv callback, After callback and Invoke as spans; with
// a drop function it discards chosen inbound datagrams before the
// program sees them (the lossy workload). Everything else passes
// straight through.
type wrapTransport struct {
	inner transport.Transport
	tr    *tracer
	// drop, when set, is consulted for every inbound datagram while
	// dropOn is true; it runs in the serialized delivery context.
	drop   func(payload []byte) bool
	dropOn atomic.Bool
}

func newWrap(inner transport.Transport, spanCap int) *wrapTransport {
	return &wrapTransport{inner: inner, tr: newTracer(spanCap)}
}

func (w *wrapTransport) BindUDP(port transport.Port) (transport.UDPConn, error) {
	c, err := w.inner.BindUDP(port)
	if err != nil {
		return nil, err
	}
	return &wrapConn{inner: c, w: w}, nil
}

func (w *wrapTransport) After(d time.Duration, fn func()) transport.Timer {
	t := w.tr
	if !t.on.Load() {
		return w.inner.After(d, fn)
	}
	t.timerArms++
	return w.inner.After(d, func() {
		if !t.on.Load() {
			fn()
			return
		}
		t.timerFires++
		t.open(kindAfter, t.now())
		fn()
		t.close()
	})
}

func (w *wrapTransport) Now() time.Duration { return w.inner.Now() }
func (w *wrapTransport) Rand() *rand.Rand   { return w.inner.Rand() }

// Invoke times the whole entry, including the wait for the inner
// transport's serialization lock.
func (w *wrapTransport) Invoke(fn func()) {
	t := w.tr
	if !t.on.Load() {
		w.inner.Invoke(fn)
		return
	}
	start := t.now()
	w.inner.Invoke(func() {
		t.open(kindInvoke, start)
		fn()
		t.close()
	})
}

// wrapConn is the benchmark's transport.UDPConn around a realudp
// socket.
type wrapConn struct {
	inner transport.UDPConn
	w     *wrapTransport
}

func (c *wrapConn) Local() transport.Endpoint { return c.inner.Local() }
func (c *wrapConn) Close()                    { c.inner.Close() }

func (c *wrapConn) OnRecv(fn func(from transport.Endpoint, payload []byte)) {
	w := c.w
	c.inner.OnRecv(func(from transport.Endpoint, p []byte) {
		if w.drop != nil && w.dropOn.Load() && w.drop(p) {
			return
		}
		t := w.tr
		if !t.on.Load() {
			fn(from, p)
			return
		}
		t.rxDgrams++
		t.rxBytes += int64(len(p))
		t.open(kindRecv, t.now())
		fn(from, p)
		t.close()
	})
}

func (c *wrapConn) SendTo(to transport.Endpoint, p []byte) error {
	t := c.w.tr
	if !t.on.Load() {
		return c.inner.SendTo(to, p)
	}
	t.txDgrams++
	t.txBytes += int64(len(p))
	t.open(kindSend, t.now())
	err := c.inner.SendTo(to, p)
	t.close()
	return err
}

// ScratchSendOK forwards the inner socket's capability. Without it
// the rendezvous forwarder and relay fall back to allocating a fresh
// encoding per datagram, and a traced run would measure a different
// program.
func (c *wrapConn) ScratchSendOK() bool {
	ss, ok := c.inner.(transport.ScratchSender)
	return ok && ss.ScratchSendOK()
}

// Span kinds, one per boundary the wrapper observes.
type spanKind uint8

const (
	kindRecv spanKind = iota
	kindSend
	kindAfter
	kindInvoke
	numKinds
)

var kindNames = [numKinds]string{"OnRecv", "SendTo", "After", "Invoke"}

// span is one recorded interval. Times are nanoseconds since the
// tracer's base; parent indexes the enclosing span on the same
// transport, or is -1.
type span struct {
	Kind   spanKind
	Parent int32
	Start  int64
	End    int64
}

// frame is an open span on the nesting stack.
type frame struct {
	idx     int32
	kind    spanKind
	start   int64
	childNs int64
}

// kindAgg accumulates closed spans of one kind.
type kindAgg struct {
	count  int64
	totNs  int64
	selfNs int64
}

// tracer records spans and counts for one transport. Everything but
// on is touched only inside the transport's serialized context (the
// realudp mutex), so the nesting stack is unambiguous; readers take
// snapshots through Invoke after switching tracing off.
type tracer struct {
	on    atomic.Bool
	base  time.Time
	spans []span // preallocated; spans beyond cap are aggregated only
	stack []frame
	agg   [numKinds]kindAgg

	txDgrams, rxDgrams int64
	txBytes, rxBytes   int64
	timerArms          int64
	timerFires         int64
}

func newTracer(spanCap int) *tracer {
	return &tracer{
		base:  time.Now(),
		spans: make([]span, 0, spanCap),
		stack: make([]frame, 0, 16),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) open(k spanKind, start int64) {
	idx := int32(-1)
	if len(t.spans) < cap(t.spans) {
		idx = int32(len(t.spans))
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].idx
		}
		t.spans = append(t.spans, span{Kind: k, Parent: parent, Start: start})
	}
	t.stack = append(t.stack, frame{idx: idx, kind: k, start: start})
}

func (t *tracer) close() {
	end := t.now()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - f.start
	a := &t.agg[f.kind]
	a.count++
	a.totNs += dur
	a.selfNs += dur - f.childNs
	if n > 0 {
		t.stack[n-1].childNs += dur
	}
	if f.idx >= 0 {
		t.spans[f.idx].End = end
	}
}

// traceSnap is a copy of a tracer's counters.
type traceSnap struct {
	agg                [numKinds]kindAgg
	txDgrams, rxDgrams int64
	txBytes, rxBytes   int64
	timerArms          int64
	timerFires         int64
	spans              []span
}

// setTracing switches tracing on or off inside the serialized
// context, so no callback sees a half-switched tracer.
func (w *wrapTransport) setTracing(on bool) {
	w.inner.Invoke(func() { w.tr.on.Store(on) })
}

// snapshot copies the counters; call it with tracing off.
func (w *wrapTransport) snapshot() traceSnap {
	var s traceSnap
	w.inner.Invoke(func() {
		t := w.tr
		s = traceSnap{
			agg: t.agg, txDgrams: t.txDgrams, rxDgrams: t.rxDgrams,
			txBytes: t.txBytes, rxBytes: t.rxBytes,
			timerArms: t.timerArms, timerFires: t.timerFires,
			spans: t.spans,
		}
	})
	return s
}

// add merges another snapshot's counters (not its spans) into s.
func (s *traceSnap) add(o traceSnap) {
	for k := range s.agg {
		s.agg[k].count += o.agg[k].count
		s.agg[k].totNs += o.agg[k].totNs
		s.agg[k].selfNs += o.agg[k].selfNs
	}
	s.txDgrams += o.txDgrams
	s.rxDgrams += o.rxDgrams
	s.txBytes += o.txBytes
	s.rxBytes += o.rxBytes
	s.timerArms += o.timerArms
	s.timerFires += o.timerFires
}

// meanNs is the mean total (self=false) or self duration of a kind.
func (s *traceSnap) meanNs(k spanKind, self bool) float64 {
	a := s.agg[k]
	if a.count == 0 {
		return 0
	}
	if self {
		return float64(a.selfNs) / float64(a.count)
	}
	return float64(a.totNs) / float64(a.count)
}
