// Package trace is the runtime's request-scoped tracing layer: one Trace per
// served request, a flat span table inside it (monotonic timestamps, parent
// links, small typed attributes), and context propagation so the span tree
// threads through the full path — server admission → per-tenant tuner →
// core.Stream batch chunks → accelerator invokes → exact re-execution →
// merger commit — without any package in between knowing more than "there
// may be a span in my context".
//
// The layer is allocation-conscious by construction. Tracing is off unless a
// Trace was explicitly put into the request context; every entry point is a
// method on a nil-able receiver or a zero-value SpanRef, and on the disabled
// path Start/End/SetAttr compile down to a nil check — zero allocations, no
// atomics, no locks. The batched hot path in internal/core relies on this:
// with no recorder configured it must benchmark identically to the untraced
// runtime (guarded by TestDisabledTracingAllocFree and the internal/bench
// suite).
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Flag marks a completed trace with an outcome the flight recorder's tail
// sampler treats as always-keep: degraded and shed requests and TOQ
// violations are exactly the traces an operator goes looking for after the
// fact, so they must never lose the sampling lottery to healthy traffic.
type Flag uint8

const (
	// FlagError marks a trace whose request failed outright.
	FlagError Flag = 1 << iota
	// FlagShed marks a request refused by admission control (answered with
	// approximate-only output).
	FlagShed
	// FlagDegraded marks a trace with at least one element whose recovery
	// panicked or overran its deadline.
	FlagDegraded
	// FlagViolating marks a request served while its tenant's quality-drift
	// monitor was in the violating state.
	FlagViolating
	// FlagFailover marks a request the cluster router could not serve from
	// the tenant's owning node and retried on a replica. Failover traces are
	// the forensic record of a node loss, so the tail sampler always keeps
	// them.
	FlagFailover
)

// flagNames is the JSON spelling of each flag bit, lowest bit first.
var flagNames = []string{"error", "shed", "degraded", "violating", "failover"}

// Names renders the set bits as sorted human-readable strings.
func (f Flag) Names() []string {
	if f == 0 {
		return nil
	}
	var out []string
	for i, n := range flagNames {
		if f&(1<<uint(i)) != 0 {
			out = append(out, n)
		}
	}
	return out
}

// attrKind discriminates the Attr payload.
type attrKind uint8

const (
	attrStr attrKind = iota
	attrInt
	attrFloat
)

// Attr is one span attribute: an entry of its trace's attribute table,
// naming the span it belongs to. Values are stored unboxed (string or
// numeric field by kind) so setting an attribute on a live span never
// allocates an interface; boxing happens only when a trace is dumped as
// JSON.
type Attr struct {
	Span int
	Key  string
	kind attrKind
	str  string
	num  float64
	i    int64
}

// Span is one timed operation inside a trace. Timestamps are nanoseconds
// relative to the trace start, taken from the monotonic clock (time.Since on
// the trace's base time), so spans order correctly even across wall-clock
// adjustments. End == 0 means the span was never ended (the dump keeps it,
// visibly unterminated, rather than guessing). Its attributes live in the
// trace's attribute table, not in the span, so a span carries no slice
// header and no per-span backing array.
type Span struct {
	ID     int
	Parent int
	Name   string
	Start  int64
	End    int64
}

// DefaultMaxSpans bounds one trace's span table. The serving layer records
// three spans per request (the root, admission and stream) and at most five
// per stream chunk (stream.chunk, accel.invoke, checker.predict, one
// exec.recover for the chunk's fired elements, merge.commit), so the
// default records a request of about 200 chunks in full: some 13,000
// elements at the default BatchSize of 64. Larger requests (an 8 MiB fft
// request holds hundreds of thousands of elements) keep their first spans
// and count the rest in Snapshot.DroppedSpans, so a trace's memory stays
// bounded whatever the request size.
const DefaultMaxSpans = 1024

// traceSeq numbers traces process-wide; IDs only need to be unique within
// one flight-recorder dump, not globally.
var traceSeq atomic.Uint64

// Trace is the span table for one request. Spans may be recorded from any
// goroutine the request's context reaches (detection, recovery workers, the
// merger); the span and attribute tables are guarded by one mutex, which the
// hot path touches at chunk granularity, not per element. All methods are
// nil-receiver safe: a nil *Trace is the disabled tracer.
type Trace struct {
	mu      sync.Mutex
	id      uint64
	begin   time.Time
	spans   []Span
	attrs   []Attr
	limit   int
	dropped int
	flags   Flag

	// traceID is the 32-hex cluster-wide identity (minted at New, adopted
	// from the wire by NewLinked); remoteParent is the 16-hex span of the
	// upstream hop this trace's root hangs under ("" at the edge). Both are
	// written before the trace is shared and immutable afterwards, so reads
	// need no lock.
	traceID      string
	remoteParent string
}

// New starts a trace whose root span carries the given name. maxSpans <= 0
// uses DefaultMaxSpans.
func New(name string, maxSpans int) *Trace {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	t := &Trace{
		id:    traceSeq.Add(1),
		begin: time.Now(),
		limit: maxSpans,
		spans: make([]Span, 1, 16),
		attrs: make([]Attr, 0, 16),
	}
	t.traceID = mintTraceID(t.id)
	t.spans[0] = Span{ID: 1, Name: name}
	return t
}

// ID returns the trace's process-unique identifier (0 for nil).
func (t *Trace) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.id
}

// TraceID returns the 32-hex cluster-wide trace identity ("" for nil): the
// key the flight recorder indexes by and the ID that travels in
// X-Rumba-Traceparent headers.
func (t *Trace) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// RemoteParent returns the 16-hex upstream span this trace's root hangs
// under, or "" for a trace minted at the edge.
func (t *Trace) RemoteParent() string {
	if t == nil {
		return ""
	}
	return t.remoteParent
}

// Root returns the root span's ref (zero for nil).
func (t *Trace) Root() SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return SpanRef{t: t, id: 1}
}

// SetFlag marks the trace for the tail sampler.
func (t *Trace) SetFlag(f Flag) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.flags |= f
	t.mu.Unlock()
}

// Flags returns the accumulated flag set.
func (t *Trace) Flags() Flag {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flags
}

// Finish ends the root span (if still open) and freezes the trace for
// recording. Spans ended after Finish still land in the table — a cancelled
// pipeline's teardown may race the handler's reply — which is why dumping
// also takes the trace lock.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.spans[0].End == 0 {
		t.spans[0].End = time.Since(t.begin).Nanoseconds()
	}
	t.mu.Unlock()
}

// now is the trace-relative monotonic clock.
func (t *Trace) now() int64 { return time.Since(t.begin).Nanoseconds() }

// start appends a child span under parent; caller must not hold t.mu.
//
//rumba:hotpath
func (t *Trace) start(parent int, name string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	ts := t.now()
	t.mu.Lock()
	if len(t.spans) >= t.limit {
		t.dropped++
		t.mu.Unlock()
		return SpanRef{}
	}
	id := len(t.spans) + 1
	//rumba:allow hotpath enabled-path span append, bounded by the trace's span limit
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: ts})
	t.mu.Unlock()
	return SpanRef{t: t, id: id}
}

// SpanRef addresses one span of one trace by index, so it is a two-word
// value that can be copied into goroutines and stored in structs without
// allocation. The zero SpanRef is the disabled tracer: every method on it is
// a no-op, which is what keeps the instrumented hot paths allocation-free
// when no trace rides the context.
type SpanRef struct {
	t  *Trace
	id int
}

// Valid reports whether the ref addresses a live span.
//
//rumba:hotpath
func (s SpanRef) Valid() bool { return s.t != nil }

// Trace returns the owning trace (nil for the zero ref).
func (s SpanRef) Trace() *Trace { return s.t }

// Start opens a child span.
//
//rumba:hotpath
func (s SpanRef) Start(name string) SpanRef {
	if s.t == nil {
		return SpanRef{}
	}
	return s.t.start(s.id, name)
}

// End stamps the span's end time. Ending twice keeps the first stamp.
//
//rumba:hotpath
func (s SpanRef) End() {
	if s.t == nil {
		return
	}
	ts := s.t.now()
	s.t.mu.Lock()
	if sp := &s.t.spans[s.id-1]; sp.End == 0 {
		sp.End = ts
	}
	s.t.mu.Unlock()
}

// attr appends one attribute of the span to the trace's attribute table.
//
//rumba:hotpath
func (s SpanRef) attr(a Attr) {
	a.Span = s.id
	s.t.mu.Lock()
	//rumba:allow hotpath enabled-path attribute append; the disabled path never reaches attr
	s.t.attrs = append(s.t.attrs, a)
	s.t.mu.Unlock()
}

// SetStr records a string attribute.
//
//rumba:hotpath
func (s SpanRef) SetStr(key, v string) {
	if s.t == nil {
		return
	}
	s.attr(Attr{Key: key, kind: attrStr, str: v})
}

// SetInt records an integer attribute.
//
//rumba:hotpath
func (s SpanRef) SetInt(key string, v int64) {
	if s.t == nil {
		return
	}
	s.attr(Attr{Key: key, kind: attrInt, i: v})
}

// SetFloat records a float attribute.
//
//rumba:hotpath
func (s SpanRef) SetFloat(key string, v float64) {
	if s.t == nil {
		return
	}
	s.attr(Attr{Key: key, kind: attrFloat, num: v})
}

// AddFlag flags the owning trace (see Trace.SetFlag); instrumented code deep
// in the pipeline — a recovery worker degrading an element — uses it to make
// the whole trace always-keep without knowing about the recorder.
//
//rumba:hotpath
func (s SpanRef) AddFlag(f Flag) { s.t.SetFlag(f) }
