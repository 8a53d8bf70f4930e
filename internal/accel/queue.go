package accel

import (
	"fmt"

	"rumba/internal/obs"
)

// Queue is a bounded FIFO in the shape of Figure 4's CPU/accelerator
// queues; rumba-serve's shared admission queue is one. It is a plain ring
// buffer; the latency/energy cost of queue traffic is accounted by the
// energy package, and the recovery queue's back-pressure by
// pipeline.Simulate, not here.
type Queue[T any] struct {
	buf        []T
	head, size int

	// Optional observability hooks (see Instrument); nil when the queue
	// is not instrumented.
	depth  *obs.Gauge
	pushes *obs.Counter
	stalls *obs.Counter
}

// Instrument attaches observability to the queue: depth tracks occupancy
// (and its high-water mark), pushes counts successful enqueues, stalls
// counts rejected Push calls on a full queue — the queue model's
// back-pressure events. Any hook may be nil.
func (q *Queue[T]) Instrument(depth *obs.Gauge, pushes, stalls *obs.Counter) {
	q.depth, q.pushes, q.stalls = depth, pushes, stalls
}

// NewQueue allocates a queue with the given capacity.
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("accel: queue capacity %d must be positive", capacity))
	}
	return &Queue[T]{buf: make([]T, capacity)}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.size }

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return len(q.buf) }

// Full reports whether a Push would fail.
func (q *Queue[T]) Full() bool { return q.size == len(q.buf) }

// Push enqueues an item; it reports false when the queue is full (the
// producer must stall, which the pipeline model charges as back-pressure).
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		if q.stalls != nil {
			q.stalls.Inc()
		}
		return false
	}
	q.buf[(q.head+q.size)%len(q.buf)] = v
	q.size++
	if q.pushes != nil {
		q.pushes.Inc()
	}
	if q.depth != nil {
		q.depth.Set(float64(q.size))
	}
	return true
}

// Pop dequeues the oldest item; ok is false when the queue is empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	if q.depth != nil {
		q.depth.Set(float64(q.size))
	}
	return v, true
}

// Drain pops everything currently queued, in FIFO order.
func (q *Queue[T]) Drain() []T {
	out := make([]T, 0, q.size)
	for {
		v, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}
