package trace

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanSnapshot is the dump form of one span.
type SpanSnapshot struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"startNs"`
	End    int64          `json:"endNs"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Snapshot is the dump form of one trace. Encoding it with encoding/json is
// deterministic (attr maps sort their keys), which the flight-recorder
// golden test relies on.
type Snapshot struct {
	ID string `json:"id"`
	// TraceID is the 32-hex cluster-wide identity; RemoteParent the 16-hex
	// upstream span adopted from the wire ("" for edge-minted traces). The
	// cluster stitcher hangs this snapshot's root span under the hop whose
	// wire span ID equals RemoteParent.
	TraceID      string         `json:"traceID"`
	RemoteParent string         `json:"remoteParent,omitempty"`
	Begin        time.Time      `json:"begin"`
	DurationNs   int64          `json:"durationNs"`
	Flags        []string       `json:"flags,omitempty"`
	DroppedSpans int            `json:"droppedSpans,omitempty"`
	Spans        []SpanSnapshot `json:"spans"`
}

// Snapshot freezes the trace for export. It takes the trace lock, so it is
// safe to call while a straggling pipeline goroutine still ends spans.
func (t *Trace) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Snapshot{
		ID:           fmt.Sprintf("%016x", t.id),
		TraceID:      t.traceID,
		RemoteParent: t.remoteParent,
		Begin:        t.begin,
		DurationNs:   t.spans[0].End,
		Flags:        t.flags.Names(),
		DroppedSpans: t.dropped,
		Spans:        make([]SpanSnapshot, len(t.spans)),
	}
	for i, sp := range t.spans {
		s.Spans[i] = SpanSnapshot{ID: sp.ID, Parent: sp.Parent, Name: sp.Name, Start: sp.Start, End: sp.End}
	}
	// Table order is write order, so a key set twice on one span keeps its
	// last value.
	for _, a := range t.attrs {
		out := &s.Spans[a.Span-1]
		if out.Attrs == nil {
			out.Attrs = make(map[string]any)
		}
		switch a.kind {
		case attrStr:
			out.Attrs[a.Key] = a.str
		case attrInt:
			out.Attrs[a.Key] = a.i
		case attrFloat:
			out.Attrs[a.Key] = a.num
		}
	}
	return s
}

// ring is a fixed-size lock-free trace buffer: writers claim slots with one
// atomic add and publish with one atomic pointer store, so Record never
// blocks a request goroutine on a dump in progress.
type ring struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
}

func newRing(n int) ring { return ring{slots: make([]atomic.Pointer[Trace], n)} }

// add claims the next slot and returns the trace it displaced (nil while the
// ring is still filling). Swap keeps the displaced pointer exact under
// concurrent adds, which is what lets the recorder's trace-ID index evict
// precisely instead of leaking entries.
func (r *ring) add(t *Trace) (displaced *Trace) {
	i := r.next.Add(1) - 1
	return r.slots[i%uint64(len(r.slots))].Swap(t)
}

func (r *ring) collect(dst []*Trace) []*Trace {
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			dst = append(dst, t)
		}
	}
	return dst
}

// RecorderConfig configures a flight recorder.
type RecorderConfig struct {
	// Capacity is the ring size; the recorder retains up to Capacity recent
	// sampled traces plus, separately, up to Capacity recent flagged traces
	// (degraded / shed / violating / error). <= 0 uses 64.
	Capacity int
	// SampleEvery is the tail-sampling rate for unflagged traces: 1 in
	// SampleEvery completed healthy traces enters the ring. <= 1 keeps all.
	// Flagged traces are always recorded, whatever the rate.
	SampleEvery int
}

// Recorder is the flight recorder: the last N completed traces, with tail
// sampling that always keeps the traces worth debugging. It is safe for
// concurrent Record and Dump.
type Recorder struct {
	cfg     RecorderConfig
	offered atomic.Uint64 // every completed trace presented to Record
	sampled atomic.Uint64 // healthy-trace lottery counter
	taken   atomic.Uint64 // traces recorded (both rings)
	recent  ring
	flagged ring

	// byTraceID indexes every retained trace by its 32-hex trace ID so the
	// /debug/rumba/traces/{traceID} lookup is a map hit, not a scan of both
	// rings. Entries are evicted exactly when the ring displaces their trace,
	// so the index never outgrows 2×Capacity.
	idxMu     sync.Mutex
	byTraceID map[string][]*Trace
}

// NewRecorder builds a flight recorder.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	return &Recorder{
		cfg:       cfg,
		recent:    newRing(cfg.Capacity),
		flagged:   newRing(cfg.Capacity),
		byTraceID: make(map[string][]*Trace, 2*cfg.Capacity),
	}
}

// Record files a completed trace. Flagged traces bypass sampling and land in
// the always-keep ring; healthy traces enter the recent ring at the
// configured sampling rate. Callers must not mutate the trace afterwards
// (Finish it first).
func (r *Recorder) Record(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.offered.Add(1)
	if t.Flags() != 0 {
		r.index(t, r.flagged.add(t))
		r.taken.Add(1)
		return
	}
	if n := r.sampled.Add(1); r.cfg.SampleEvery > 1 && (n-1)%uint64(r.cfg.SampleEvery) != 0 {
		return
	}
	r.index(t, r.recent.add(t))
	r.taken.Add(1)
}

// index files t under its trace ID and evicts the ring-displaced trace (when
// any) from the index. Record's callers are request goroutines finishing a
// trace, never the per-element hot path, so one short mutex hold is fine.
func (r *Recorder) index(t, displaced *Trace) {
	r.idxMu.Lock()
	defer r.idxMu.Unlock()
	r.byTraceID[t.traceID] = append(r.byTraceID[t.traceID], t)
	if displaced == nil {
		return
	}
	kept := r.byTraceID[displaced.traceID]
	for i, old := range kept {
		if old == displaced {
			kept = append(kept[:i], kept[i+1:]...)
			break
		}
	}
	if len(kept) == 0 {
		delete(r.byTraceID, displaced.traceID)
	} else {
		r.byTraceID[displaced.traceID] = kept
	}
}

// Lookup returns the snapshots of every retained trace with the given trace
// ID, oldest first. Normally one trace matches; a retried request whose two
// attempts both landed on this node yields several.
func (r *Recorder) Lookup(traceID string) []Snapshot {
	if r == nil {
		return nil
	}
	r.idxMu.Lock()
	traces := append([]*Trace(nil), r.byTraceID[traceID]...)
	r.idxMu.Unlock()
	if len(traces) == 0 {
		return nil
	}
	sort.Slice(traces, func(a, b int) bool { return traces[a].id < traces[b].id })
	out := make([]Snapshot, len(traces))
	for i, t := range traces {
		out[i] = t.Snapshot()
	}
	return out
}

// Dump is the /debug/rumba/traces payload. Offered counts every completed
// trace presented to the recorder; Recorded the subset that entered a ring
// (flagged, or winning the tail-sampling lottery) — the difference is what
// sampling dropped.
type Dump struct {
	Capacity    int        `json:"capacity"`
	SampleEvery int        `json:"sampleEvery"`
	Offered     uint64     `json:"offered"`
	Recorded    uint64     `json:"recorded"`
	Traces      []Snapshot `json:"traces"`
}

// Snapshot collects both rings, oldest trace first (by trace sequence
// number — monotonic, so creation order survives ring wraparound).
func (r *Recorder) Snapshot() Dump {
	d := Dump{
		Capacity:    r.cfg.Capacity,
		SampleEvery: r.cfg.SampleEvery,
		Offered:     r.offered.Load(),
		Recorded:    r.taken.Load(),
	}
	var traces []*Trace
	traces = r.recent.collect(traces)
	traces = r.flagged.collect(traces)
	sort.Slice(traces, func(a, b int) bool { return traces[a].id < traces[b].id })
	d.Traces = make([]Snapshot, len(traces))
	for i, t := range traces {
		d.Traces[i] = t.Snapshot()
	}
	return d
}

// ServeHTTP dumps the recorder as JSON — the /debug/rumba/traces endpoint.
// With ?flagged=1 only the always-keep ring is returned.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	d := r.Snapshot()
	if req.URL.Query().Get("flagged") == "1" {
		kept := d.Traces[:0]
		for _, t := range d.Traces {
			if len(t.Flags) > 0 {
				kept = append(kept, t)
			}
		}
		d.Traces = kept
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(d)
}
