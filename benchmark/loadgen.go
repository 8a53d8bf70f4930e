package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rumba/internal/server"
)

const (
	// conns is the number of keep-alive connections and sender goroutines.
	conns = 2
	// poolBytes caps the encoded request pool; maxPoolReqs caps its length.
	// The pool is reused in a cycle.
	poolBytes   = 8 << 20
	maxPoolReqs = 4096
	// arenaBytes bounds the verification sample each sender keeps per phase.
	arenaBytes = 2 << 20
	// maxReported caps how many failures of each kind a run lists.
	maxReported = 5
)

// pool is a workload's request set, encoded from the seed before any clock
// starts. The program sees only these bodies.
type pool struct {
	bodies [][]byte
	// inputs, kernel and tenant describe each body, for verification and
	// for the ladder's in-process rungs.
	inputs [][][]float64
	kernel []int
	tenant []string
}

// buildPool draws each request's elements from a seed-permuted cycle over
// the kernel's GenTest pool. Tenants are assigned round-robin and kernels in
// rotation.
func buildPool(w *workload, kernels []*kernel, seed uint64) (*pool, error) {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	tests := make([][][]float64, len(kernels))
	perms := make([][]int, len(kernels))
	pos := make([]int, len(kernels))
	for k, kn := range kernels {
		tests[k] = kn.spec.GenTest(0).Inputs
	}
	p := &pool{}
	size := 0
	for i := 0; i < maxPoolReqs; i++ {
		k := i % len(kernels)
		rows := make([][]float64, w.Elems)
		for j := range rows {
			if pos[k] == len(perms[k]) {
				perms[k], pos[k] = r.Perm(len(tests[k])), 0
			}
			rows[j] = tests[k][perms[k][pos[k]]]
			pos[k]++
		}
		tenant := fmt.Sprintf("tenant-%02d", i%w.Tenants)
		body, err := json.Marshal(server.InvokeRequest{Tenant: tenant, Kernel: kernels[k].spec.Name, Inputs: rows})
		if err != nil {
			return nil, err
		}
		if size+len(body) > poolBytes && len(p.bodies) > 0 {
			break
		}
		size += len(body)
		p.bodies = append(p.bodies, body)
		p.inputs = append(p.inputs, rows)
		p.kernel = append(p.kernel, k)
		p.tenant = append(p.tenant, tenant)
	}
	// Whole tenant rounds keep the cycle's round-robin unbroken.
	if n := len(p.bodies) / w.Tenants * w.Tenants; n > 0 {
		p.bodies, p.inputs, p.kernel, p.tenant = p.bodies[:n], p.inputs[:n], p.kernel[:n], p.tenant[:n]
	}
	return p, nil
}

// conn is one keep-alive HTTP connection to the front door.
type conn struct {
	client *http.Client
	tr     *http.Transport
	url    string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{client: &http.Client{Transport: tr}, tr: tr, url: base + "/v1/invoke"}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// post sends one request and checks its status. With dst set, the response
// body is appended to *dst when it fits in dst's capacity, and kept reports
// whether it did; otherwise the body is discarded.
func (c *conn) post(body []byte, dst *[]byte) (kept bool, err error) {
	resp, err := c.client.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if dst != nil {
		buf := *dst
		for len(buf) < cap(buf) {
			n, err := resp.Body.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
			if err == io.EOF {
				*dst = buf
				return true, nil
			}
			if err != nil {
				return false, err
			}
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return false, err
}

// sample is one kept response, verified after the phases.
type sample struct {
	body int
	raw  []byte
}

// sender is one connection with its verification arenas: fixed buffers,
// one per phase, allocated before the heap sampler starts so that keeping
// samples does not move heap_peak_mb.
type sender struct {
	*conn
	arenas  [2][]byte
	samples []sample
}

// loadgen drives one topology through both phases.
type loadgen struct {
	pool    *pool
	senders []*sender
	// phase indexes the senders' arenas; set before a phase's goroutines start.
	phase int
	// next numbers requests across both phases; id % len(pool) picks the body.
	next      atomic.Int64
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	errs []string
}

func newLoadgen(url string, p *pool) *loadgen {
	g := &loadgen{pool: p}
	for i := 0; i < conns; i++ {
		s := &sender{conn: newConn(url)}
		for a := range s.arenas {
			s.arenas[a] = make([]byte, 0, arenaBytes)
		}
		g.senders = append(g.senders, s)
	}
	return g
}

func (g *loadgen) close() {
	for _, s := range g.senders {
		s.close()
	}
}

// samples returns every kept response.
func (g *loadgen) samples() []sample {
	var all []sample
	for _, s := range g.senders {
		all = append(all, s.samples...)
	}
	return all
}

// sampled picks one request id in 16 for verification, by a multiplicative
// hash of the id, so that the sample covers every tenant and pool body.
func sampled(id int64) bool { return (uint64(id)*0x9e3779b97f4a7c15)>>60 == 0 }

// send posts the next request on s and reports whether it succeeded.
func (g *loadgen) send(s *sender) bool {
	id := g.next.Add(1) - 1
	body := int(id % int64(len(g.pool.bodies)))
	var dst *[]byte
	if sampled(id) {
		dst = &s.arenas[g.phase]
	}
	from := len(s.arenas[g.phase])
	g.attempted.Add(1)
	kept, err := s.post(g.pool.bodies[body], dst)
	if err != nil {
		g.failed.Add(1)
		g.mu.Lock()
		if len(g.errs) < maxReported {
			g.errs = append(g.errs, err.Error())
		}
		g.mu.Unlock()
		return false
	}
	if kept {
		s.samples = append(s.samples, sample{body: body, raw: s.arenas[g.phase][from:]})
	}
	return true
}

// window is the slice of a measured phase that throughput and the latency
// percentiles are first taken over; each is reported as the median across
// the phase's windows, so that a passing stall of the host moves it less.
const window = 2 * time.Second

// windows splits a measured phase into n equal windows of about window
// each (one window when the phase is shorter).
func windows(measure time.Duration) (n int, length time.Duration) {
	n = max(1, int(measure/window))
	return n, measure / time.Duration(n)
}

// capacity runs the closed loop: each connection sends its next request when
// the previous one returns. atStart and atEnd run at the measured phase's
// bounds. It returns, per window, the successful requests that completed in
// it.
func (g *loadgen) capacity(warm, measure time.Duration, atStart, atEnd func()) []int64 {
	g.phase = 0
	n, length := windows(measure)
	start := time.Now()
	mStart, mEnd := start.Add(warm), start.Add(warm+measure)
	ok := make([]atomic.Int64, n)
	var wg sync.WaitGroup
	for _, s := range g.senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for time.Now().Before(mEnd) {
				if g.send(s) {
					if t := time.Now(); !t.Before(mStart) && t.Before(mEnd) {
						ok[min(int(t.Sub(mStart)/length), n-1)].Add(1)
					}
				}
			}
		}(s)
	}
	time.Sleep(time.Until(mStart))
	atStart()
	time.Sleep(time.Until(mEnd))
	atEnd()
	wg.Wait()
	counts := make([]int64, n)
	for i := range ok {
		counts[i] = ok[i].Load()
	}
	return counts
}

// pacedStats is what the open-loop phase measures.
type pacedStats struct {
	// latency holds, per window, the ms from each request's due time to its
	// response; all holds every window's, sorted.
	latency    [][]float64
	all        []float64
	lagP99     float64 // ms the dispatcher ran behind schedule
	backlogMax int
	saturated  bool
}

// arrival is one paced request; win is its window by due time, -1 during
// the warm-up.
type arrival struct {
	due time.Time
	win int
}

type sampleMs struct {
	win int
	ms  float64
}

// paced runs the open loop: Poisson arrivals at rate per second from the
// seed, handed to the senders through a queue. Latency counts from each
// request's due time, so waiting for a free connection counts.
func (g *loadgen) paced(rate float64, seed uint64, warm, measure time.Duration) pacedStats {
	g.phase = 1
	r := rand.New(rand.NewPCG(seed, 0xa771))
	total := warm + measure
	arrivals := int(rate*total.Seconds()) + 16
	queue := make(chan arrival, arrivals) // sized to every arrival, so dispatch never blocks
	lat := make([][]sampleMs, len(g.senders))
	var wg sync.WaitGroup
	for i, s := range g.senders {
		lat[i] = make([]sampleMs, 0, arrivals)
		wg.Add(1)
		go func(i int, s *sender) {
			defer wg.Done()
			for a := range queue {
				if g.send(s) && a.win >= 0 {
					lat[i] = append(lat[i], sampleMs{a.win, float64(time.Since(a.due)) / 1e6})
				}
			}
		}(i, s)
	}

	// backlog holds the queue length after each measured arrival.
	type point struct {
		at time.Duration
		n  int
	}
	backlog := make([]point, 0, arrivals)
	lags := make([]float64, 0, arrivals)
	nWin, length := windows(measure)
	start := time.Now()
	mStart := start.Add(warm)
	due := start
	for {
		due = due.Add(time.Duration(r.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(start) >= total {
			break
		}
		// An idle Go runtime rounds sleeps shorter than a millisecond up to
		// one, so arrivals run up to a millisecond late and the latency of
		// the smallest requests has that floor; loadgen.lag_p99_ms reports
		// it. Spinning on runtime.Gosched instead keeps a processor busy and
		// delays the senders far more.
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		a := arrival{due: due, win: -1}
		if !due.Before(mStart) {
			a.win = min(int(due.Sub(mStart)/length), nWin-1)
		}
		queue <- a
		if a.win >= 0 {
			lags = append(lags, float64(now.Sub(due))/1e6)
			backlog = append(backlog, point{now.Sub(start), len(queue)})
		}
	}
	close(queue)
	wg.Wait()

	st := pacedStats{latency: make([][]float64, nWin), lagP99: quantile(lags, 0.99)}
	for _, l := range lat {
		for _, x := range l {
			st.latency[x.win] = append(st.latency[x.win], x.ms)
			st.all = append(st.all, x.ms)
		}
	}
	sort.Float64s(st.all)
	for _, p := range backlog {
		st.backlogMax = max(st.backlogMax, p.n)
	}
	// Saturated: over the last 5 s of the phase (half the measured window,
	// if shorter) the mean backlog grew by more than one request per
	// connection. Each mean is taken over 1 s (or the span, if shorter).
	mean := func(from, to time.Duration) float64 {
		sum, n := 0, 0
		for _, p := range backlog {
			if p.at >= from && p.at < to {
				sum, n = sum+p.n, n+1
			}
		}
		return float64(sum) / float64(max(n, 1))
	}
	span := min(5*time.Second, measure/2)
	avg := min(time.Second, span)
	st.saturated = mean(total-avg, total) > mean(total-span-avg, total-span)+conns
	return st
}

// heapSampler records the peak runtime HeapInuse every 50 ms until stopped.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			h.peak = max(h.peak, ms.HeapInuse)
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMiB stops the sampler and returns the peak in MiB.
func (h *heapSampler) peakMiB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// windowedQuantile is the median across windows of each window's
// q-quantile.
func windowedQuantile(byWindow [][]float64, q float64) float64 {
	var per []float64
	for _, w := range byWindow {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	return median(per)
}

// quantile is the nearest-rank q-quantile of v (sorted in place).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[min(max(i, 0), len(v)-1)]
}
