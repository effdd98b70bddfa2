package main

import (
	"strings"
	"sync"
	"time"

	"pipedream/internal/nn"
	"pipedream/internal/tensor"
	"pipedream/internal/transport"
)

// span is one timed call, in nanoseconds since the tracer's origin.
type span struct{ start, end int64 }

// recorder accumulates the calls of one named boundary (one layer
// direction, one API call). Every call is counted and timed; when keep
// is set the spans themselves are kept until the next drain, for
// self-time accounting.
type recorder struct {
	mu    sync.Mutex
	n     int64
	total int64 // ns
	keep  bool
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.n++
	r.total += s.end - s.start
	if r.keep {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// drain returns the kept spans and forgets them.
func (r *recorder) drain() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// totals returns the call count and summed duration.
func (r *recorder) totals() (n int64, total time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n, time.Duration(r.total)
}

// tracer owns the recorders of a traced run. Spans live in memory and are
// summarized when the run ends; nothing is written while timing.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	recs   map[string]*recorder
	// onBatch, when set, sees every input batch of the layers named in
	// batchLayers at the moment its forward pass starts.
	onBatch     func(x *tensor.Tensor, at int64)
	batchLayers map[string]bool
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), recs: make(map[string]*recorder)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// rec returns the recorder for name, creating it on first use; keep
// decides, on creation, whether it keeps its spans.
func (t *tracer) rec(name string, keep bool) *recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.recs[name]
	if !ok {
		r = &recorder{keep: keep}
		t.recs[name] = r
	}
	return r
}

// time runs f as one span of the named boundary. On a nil tracer (an
// untraced run) it just runs f.
func (t *tracer) time(name string, f func()) span {
	if t == nil {
		f()
		return span{}
	}
	r := t.rec(name, false)
	s := span{start: t.now()}
	f()
	s.end = t.now()
	r.add(s)
	return s
}

// totals returns the count and summed duration recorded under name.
func (t *tracer) totals(name string) (int64, time.Duration) {
	t.mu.Lock()
	r := t.recs[name]
	t.mu.Unlock()
	if r == nil {
		return 0, 0
	}
	return r.totals()
}

// sumPrefix adds up the totals of every recorder whose name starts with
// prefix and ends with suffix.
func (t *tracer) sumPrefix(prefix, suffix string) (n int64, total time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, r := range t.recs {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			rn, rt := r.totals()
			n += rn
			total += rt
		}
	}
	return n, total
}

// reset forgets what the recorders whose names start with prefix have
// seen, so warm-up calls stay out of the timed totals.
func (t *tracer) reset(prefix string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for name, r := range t.recs {
		if strings.HasPrefix(name, prefix) {
			r.mu.Lock()
			r.n, r.total, r.spans = 0, 0, nil
			r.mu.Unlock()
		}
	}
}

// drainKept returns and forgets every kept span of every recorder.
func (t *tracer) drainKept() []span {
	t.mu.Lock()
	recs := make([]*recorder, 0, len(t.recs))
	for _, r := range t.recs {
		recs = append(recs, r)
	}
	t.mu.Unlock()
	var out []span
	for _, r := range recs {
		out = append(out, r.drain()...)
	}
	return out
}

// tracedLayer wraps an nn.Layer by delegation and times each call into
// it. It implements nn.InferLayer whether or not the wrapped layer does;
// ForwardInfer falls back to Forward the way Sequential.ForwardInfer
// would.
type tracedLayer struct {
	inner         nn.Layer
	t             *tracer
	fwd, bwd, inf *recorder
	batchHook     bool // call t.onBatch on each ForwardInfer
}

func (t *tracer) wrapLayer(l nn.Layer) *tracedLayer {
	base := "nn." + l.Name()
	return &tracedLayer{
		inner:     l,
		t:         t,
		fwd:       t.rec(base+".fwd", true),
		bwd:       t.rec(base+".bwd", true),
		inf:       t.rec(base+".infer", false),
		batchHook: t.batchLayers[l.Name()],
	}
}

// wrapModel replaces every layer of m with its traced wrapper and
// returns m; a nil tracer returns m as it is.
func (t *tracer) wrapModel(m *nn.Sequential) *nn.Sequential {
	if t == nil {
		return m
	}
	for i, l := range m.Layers {
		m.Layers[i] = t.wrapLayer(l)
	}
	return m
}

func (l *tracedLayer) Name() string                   { return l.inner.Name() }
func (l *tracedLayer) Params() []*tensor.Tensor       { return l.inner.Params() }
func (l *tracedLayer) Grads() []*tensor.Tensor        { return l.inner.Grads() }
func (l *tracedLayer) recordTo(r *recorder, s0 int64) { r.add(span{start: s0, end: l.t.now()}) }

func (l *tracedLayer) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, nn.Context) {
	s0 := l.t.now()
	y, ctx := l.inner.Forward(x, train)
	l.recordTo(l.fwd, s0)
	return y, ctx
}

func (l *tracedLayer) Backward(ctx nn.Context, gradOut *tensor.Tensor) *tensor.Tensor {
	s0 := l.t.now()
	g := l.inner.Backward(ctx, gradOut)
	l.recordTo(l.bwd, s0)
	return g
}

func (l *tracedLayer) ForwardInfer(x *tensor.Tensor, a *tensor.Arena) *tensor.Tensor {
	s0 := l.t.now()
	if l.batchHook && l.t.onBatch != nil {
		l.t.onBatch(x, s0)
	}
	var y *tensor.Tensor
	if il, ok := l.inner.(nn.InferLayer); ok {
		y = il.ForwardInfer(x, a)
	} else {
		y, _ = l.inner.Forward(x, false)
	}
	l.recordTo(l.inf, s0)
	return y
}

// tracedTransport wraps a transport.Transport and times every Send,
// counting messages and tensor bytes by kind.
type tracedTransport struct {
	inner transport.Transport
	t     *tracer

	sends *recorder

	mu      sync.Mutex
	msgs    map[transport.MsgKind]int64
	bytes   map[transport.MsgKind]int64
	sendsNs []int64
}

func (t *tracer) wrapTransport(tr transport.Transport) *tracedTransport {
	tt := &tracedTransport{inner: tr, t: t, sends: t.rec("transport.send", true)}
	tt.reset()
	return tt
}

// reset forgets the sends seen so far.
func (tt *tracedTransport) reset() {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	tt.msgs = make(map[transport.MsgKind]int64)
	tt.bytes = make(map[transport.MsgKind]int64)
	tt.sendsNs = nil
}

func (tt *tracedTransport) Send(to int, m transport.Message) error {
	// Read the payload size before sending: the receiver owns the tensor
	// once Send returns.
	b := 0
	if m.Tensor != nil {
		b = m.Tensor.Bytes()
	}
	s0 := tt.t.now()
	err := tt.inner.Send(to, m)
	s1 := tt.t.now()
	tt.sends.add(span{start: s0, end: s1})
	d := s1 - s0
	tt.mu.Lock()
	tt.msgs[m.Kind]++
	tt.bytes[m.Kind] += int64(b)
	tt.sendsNs = append(tt.sendsNs, d)
	tt.mu.Unlock()
	return err
}

func (tt *tracedTransport) Inbox(w int) <-chan transport.Message { return tt.inner.Inbox(w) }
func (tt *tracedTransport) Close() error                         { return tt.inner.Close() }

// transportTotals summarizes the traced sends.
type transportTotals struct {
	msgs, bytes, chunks, chunkBytes int64
	sendTotal                       time.Duration
	sendP99                         time.Duration
}

func (tt *tracedTransport) totals() transportTotals {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	var out transportTotals
	for k, n := range tt.msgs {
		out.msgs += n
		out.bytes += tt.bytes[k]
	}
	out.chunks = tt.msgs[transport.GradChunk]
	out.chunkBytes = tt.bytes[transport.GradChunk]
	lat := make([]float64, len(tt.sendsNs))
	for i, d := range tt.sendsNs {
		out.sendTotal += time.Duration(d)
		lat[i] = float64(d)
	}
	if len(lat) > 0 {
		out.sendP99 = time.Duration(percentile(lat, 99))
	}
	return out
}
