package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"rumba/internal/obs"
)

// Cluster metric names. Per-node series are labelled with the node name.
const (
	// MetricProbeState gauges each node's health: 0 up, 1 suspect, 2 down.
	MetricProbeState = "cluster.probe.state"
	// MetricProbeFailures counts failed probes per node.
	MetricProbeFailures = "cluster.probe.failures"
	// MetricForwards counts requests forwarded per node.
	MetricForwards = "cluster.forwards"
	// MetricFailovers counts forward attempts that failed on a node and
	// moved to the next replica.
	MetricFailovers = "cluster.failovers"
	// MetricUnroutable counts requests no replica could serve.
	MetricUnroutable = "cluster.unroutable"
	// MetricForwardLatencyNs is the end-to-end forward latency (all attempts)
	// in nanoseconds.
	MetricForwardLatencyNs = "cluster.forward_latency_ns"
)

// Node is one cluster member: a stable name (the ring key) and its base URL.
type Node struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// NodeState is a member's probed health.
type NodeState int

const (
	// NodeUp: the last probe succeeded.
	NodeUp NodeState = iota
	// NodeSuspect: SuspectAfter..DownAfter-1 consecutive probes failed. A
	// suspect node still receives forwards (the failure may be a transient
	// probe loss), but operators see the state change immediately.
	NodeSuspect
	// NodeDown: at least DownAfter consecutive probes failed. Down nodes are
	// skipped when choosing a forward target; the ring itself is untouched,
	// so a recovered node gets its tenants back automatically.
	NodeDown
)

// String implements fmt.Stringer.
func (s NodeState) String() string {
	switch s {
	case NodeSuspect:
		return "suspect"
	case NodeDown:
		return "down"
	default:
		return "up"
	}
}

// ProbeConfig tunes the membership prober.
type ProbeConfig struct {
	// Interval between probe rounds; <= 0 uses 2s.
	Interval time.Duration
	// Timeout bounds one probe request; <= 0 uses 1s.
	Timeout time.Duration
	// SuspectAfter consecutive failures mark a node suspect; <= 0 uses 1.
	SuspectAfter int
	// DownAfter consecutive failures mark a node down; <= 0 uses 3, and it
	// is clamped to at least SuspectAfter.
	DownAfter int
	// Client optionally overrides the probe HTTP client (tests inject
	// httptest clients); nil builds one from Timeout.
	Client *http.Client
}

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 3
	}
	if c.DownAfter < c.SuspectAfter {
		c.DownAfter = c.SuspectAfter
	}
	return c
}

// nodeHealth is one member's probe bookkeeping.
type nodeHealth struct {
	node     Node
	state    NodeState
	failures int // consecutive
	lastErr  string
	probes   int64
	// forwards and failovers are the member's cluster.forwards and
	// cluster.failovers counters, resolved on first use (countForward).
	forwards, failovers *obs.Counter
}

// Membership is the static member set plus its probed health. Static means
// the set changes only by explicit reconfiguration (the router's rebalance),
// never by the prober: probing moves nodes between up/suspect/down, which
// gates forwarding, but the ring and the member list are configuration.
type Membership struct {
	mu    sync.Mutex
	nodes map[string]*nodeHealth
	names []string

	cfg    ProbeConfig
	client *http.Client

	metrics  *obs.Registry
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewMembership builds the member set. Names must be unique and non-empty.
func NewMembership(nodes []Node, cfg ProbeConfig, metrics *obs.Registry) (*Membership, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: membership needs at least one node")
	}
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	cfg = cfg.withDefaults()
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: cfg.Timeout}
	}
	m := &Membership{
		nodes:   make(map[string]*nodeHealth, len(nodes)),
		cfg:     cfg,
		client:  client,
		metrics: metrics,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for _, n := range nodes {
		if n.Name == "" || n.URL == "" {
			return nil, fmt.Errorf("cluster: node needs a name and a URL: %+v", n)
		}
		if _, dup := m.nodes[n.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate node %q", n.Name)
		}
		m.nodes[n.Name] = &nodeHealth{node: Node{Name: n.Name, URL: strings.TrimRight(n.URL, "/")}}
		m.names = append(m.names, n.Name)
	}
	sort.Strings(m.names)
	for _, name := range m.names {
		m.stateGauge(name).Set(float64(NodeUp))
	}
	return m, nil
}

// Names returns the member names, sorted.
func (m *Membership) Names() []string { return append([]string(nil), m.names...) }

// Nodes returns the member set, sorted by name — the configuration a
// rebalance edits.
func (m *Membership) Nodes() []Node {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Node, 0, len(m.names))
	for _, name := range m.names {
		out = append(out, m.nodes[name].node)
	}
	return out
}

// URL returns a member's base URL ("" for unknown members).
func (m *Membership) URL(name string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.nodes[name]; ok {
		return h.node.URL
	}
	return ""
}

// countForward counts one forward attempt on a member: in its
// cluster.forwards counter when the member answered, in cluster.failovers
// when the router had to move on. The counter is resolved in the registry on
// the member's first such attempt and then kept with the member, so the
// router's per-request path skips obs.Labeled and the registry lock.
func (m *Membership) countForward(name string, failover bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.nodes[name]
	if !ok {
		return // the router forwards only to members of its own ring
	}
	c, metric := &h.forwards, MetricForwards
	if failover {
		c, metric = &h.failovers, MetricFailovers
	}
	if *c == nil {
		*c = m.metrics.Counter(obs.Labeled(metric, "node", name))
	}
	(*c).Inc()
}

// State returns a member's probed health (NodeDown for unknown members).
func (m *Membership) State(name string) NodeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.nodes[name]; ok {
		return h.state
	}
	return NodeDown
}

// NodeStatus is the ops-facing view of one member (the /v1/cluster listing).
type NodeStatus struct {
	Node
	State string `json:"state"`
	// ConsecutiveFailures counts probe failures since the last success;
	// LastError is the latest probe failure ("" while up).
	ConsecutiveFailures int    `json:"consecutiveFailures"`
	LastError           string `json:"lastError,omitempty"`
	Probes              int64  `json:"probes"`
}

// Snapshot lists every member's status, sorted by name.
func (m *Membership) Snapshot() []NodeStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]NodeStatus, 0, len(m.names))
	for _, name := range m.names {
		h := m.nodes[name]
		out = append(out, NodeStatus{
			Node:                h.node,
			State:               h.state.String(),
			ConsecutiveFailures: h.failures,
			LastError:           h.lastErr,
			Probes:              h.probes,
		})
	}
	return out
}

// Start launches the probe loop; it runs until ctx is cancelled or Stop is
// called. An immediate first round runs before the first tick so a router
// fronting a half-started cluster learns who is ready without waiting an
// interval.
func (m *Membership) Start(ctx context.Context) {
	go func() {
		defer close(m.done)
		m.ProbeNow(ctx)
		ticker := time.NewTicker(m.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-m.stop:
				return
			case <-ticker.C:
				m.ProbeNow(ctx)
			}
		}
	}()
}

// Stop ends the probe loop started by Start and waits for it to exit.
func (m *Membership) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// ProbeNow runs one synchronous probe round over all members (in parallel —
// one slow node must not delay detection of another's death).
func (m *Membership) ProbeNow(ctx context.Context) {
	var wg sync.WaitGroup
	for _, name := range m.names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			m.probe(ctx, name)
		}(name)
	}
	wg.Wait()
}

// probe checks one node's /readyz and advances its state machine.
func (m *Membership) probe(ctx context.Context, name string) {
	m.mu.Lock()
	h, ok := m.nodes[name]
	if !ok {
		m.mu.Unlock()
		return
	}
	url := h.node.URL + "/readyz"
	m.mu.Unlock()

	err := m.check(ctx, url)

	m.mu.Lock()
	defer m.mu.Unlock()
	h.probes++
	if err == nil {
		h.failures = 0
		h.lastErr = ""
		h.state = NodeUp
	} else {
		h.failures++
		h.lastErr = err.Error()
		m.metrics.Counter(obs.Labeled(MetricProbeFailures, "node", name)).Inc()
		switch {
		case h.failures >= m.cfg.DownAfter:
			h.state = NodeDown
		case h.failures >= m.cfg.SuspectAfter:
			h.state = NodeSuspect
		}
	}
	m.stateGauge(name).Set(float64(h.state))
}

// check issues one readiness probe. Any non-200 is a failure: /readyz
// answers 503 with a reason while draining or empty, which is exactly the
// "stop sending me tenants" signal.
func (m *Membership) check(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("readyz %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	// Drain the (tiny) body so the probe connection is reusable.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 256))
	return nil
}

func (m *Membership) stateGauge(name string) *obs.Gauge {
	return m.metrics.Gauge(obs.Labeled(MetricProbeState, "node", name))
}
