package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rumba/internal/core"
	"rumba/internal/energy"
)

// slowExec makes the detection stage slow enough for a request deadline to
// land mid-batch.
type slowExec struct{ d time.Duration }

func (s slowExec) Invoke(in []float64) []float64 {
	time.Sleep(s.d)
	return []float64{in[0]*2 + 0.125}
}
func (slowExec) CyclesPerInvocation() float64             { return 64 }
func (slowExec) EnergyPerInvocation(energy.Model) float64 { return 1 }

func TestInvokeDeadlineExceeded(t *testing.T) {
	s, hs := newTestServer(t, Options{}, synthKernel("synth", slowExec{2 * time.Millisecond}))

	inputs := make([][]float64, 200)
	for i := range inputs {
		inputs[i] = in(float64(i), 0)
	}
	status, _, msg := invoke(t, hs.URL, InvokeRequest{Kernel: "synth", Inputs: inputs, DeadlineMs: 20})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%s), want 504", status, msg)
	}
	if got := s.mDeadline.Value(); got != 1 {
		t.Fatalf("%s = %v, want 1", MetricDeadline, got)
	}
}

// taggedExec is slowExec that also counts its calls for inputs valued at
// least 1000.
type taggedExec struct {
	slowExec
	tagged atomic.Int64
}

func (e *taggedExec) Invoke(in []float64) []float64 {
	if in[0] >= 1000 {
		e.tagged.Add(1)
	}
	return e.slowExec.Invoke(in)
}

// TestInvokeAfterDeadlineReusesTenant: a tenant's request whose deadline
// expires mid-stream gets a 504, and the same tenant's next request, sent
// at once, succeeds. Once the 504 is written nothing of the expired request
// may still run on the tenant's accelerator, checker or tuner: under -race
// that is a data race with the next request, and the accelerator counts
// calls for the expired request's inputs that come late.
func TestInvokeAfterDeadlineReusesTenant(t *testing.T) {
	ex := &taggedExec{slowExec: slowExec{time.Millisecond}}
	_, hs := newTestServer(t, Options{BatchSize: 4, InvocationSize: 4,
		Defaults: TunerDefaults{Mode: core.ModeEnergy, Target: 0.5}}, synthKernel("synth", ex))

	expired := make([][]float64, 200)
	for i := range expired {
		expired[i] = in(1000+float64(i), 0.75)
	}
	status, _, msg := invoke(t, hs.URL, InvokeRequest{Tenant: "acme", Kernel: "synth", Inputs: expired, DeadlineMs: 20})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("expiring request: status %d (%s), want 504", status, msg)
	}
	calls := ex.tagged.Load()
	status, resp, msg := invoke(t, hs.URL, InvokeRequest{Tenant: "acme", Kernel: "synth",
		Inputs: [][]float64{in(1, 0.75), in(2, 0)}})
	if status != http.StatusOK || resp.Elements != 2 {
		t.Fatalf("next request: status %d, %d elements (%s), want 200 with 2", status, resp.Elements, msg)
	}
	if late := ex.tagged.Load() - calls; late != 0 {
		t.Fatalf("%d accelerator calls for the expired request came after its 504", late)
	}
}

// gatedKernel is the overload fixture: its *exact* kernel blocks on gate, so
// an admitted request that fires occupies its pipeline worker until released,
// while the shed path (approximate-only, no recovery) never touches the gate.
func gatedKernel(name string, entered chan<- struct{}, gate <-chan struct{}) *Kernel {
	k := synthKernel(name, synthExec{})
	k.Spec.Exact = func(in []float64) []float64 {
		entered <- struct{}{}
		<-gate
		return []float64{in[0] * 2}
	}
	return k
}

// TestOverloadShedsDegraded pins the shed contract: with a 1-slot in-flight
// window occupied by a blocked request, the next request is answered
// immediately with the approximate-only output and degraded=true — not
// queued, not errored.
func TestOverloadShedsDegraded(t *testing.T) {
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	s, hs := newTestServer(t,
		Options{PipelineWorkers: 1, QueueCap: 1, MaxInFlight: 1},
		gatedKernel("synth", entered, gate))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Fires (score 0.9 > 0.1) and blocks in recovery until the gate opens.
		status, resp, msg := invoke(t, hs.URL, InvokeRequest{Tenant: "blocker", Kernel: "synth",
			Inputs: [][]float64{in(1, 0.9)}})
		if status != http.StatusOK || resp.Degraded || resp.Fixed != 1 {
			t.Errorf("blocked request: status %d degraded %v fixed %d (%s)", status, resp.Degraded, resp.Fixed, msg)
		}
	}()
	<-entered // the blocker owns the only in-flight token

	status, resp, msg := invoke(t, hs.URL, InvokeRequest{Tenant: "shed", Kernel: "synth",
		Inputs: [][]float64{in(3, 0.9), in(4, 0.9)}})
	if status != http.StatusOK {
		t.Fatalf("shed request: status %d (%s), want 200", status, msg)
	}
	if !resp.Degraded {
		t.Fatalf("shed request: degraded = false, want true")
	}
	if resp.Fixed != 0 || resp.Threshold != 0 {
		t.Fatalf("shed request: fixed=%d threshold=%v, want unchecked approximate output", resp.Fixed, resp.Threshold)
	}
	// Approximate-only outputs: value*2 + 0.125, never the exact value*2.
	if len(resp.Outputs) != 2 || resp.Outputs[0][0] != 3*2+0.125 || resp.Outputs[1][0] != 4*2+0.125 {
		t.Fatalf("shed outputs = %v", resp.Outputs)
	}
	if got := s.mShed.Value(); got != 1 {
		t.Fatalf("%s = %v, want 1", MetricShed, got)
	}

	close(gate)
	wg.Wait()
	if got := s.mRequests.Value(); got != 1 {
		t.Fatalf("%s = %v, want 1 (only the admitted request)", MetricRequests, got)
	}
	// A shed request must not advance the victim tenant's tuner stats.
	// (Checked after the gate opens: Tenants() takes each tenant's lock,
	// which the blocked request holds while in recovery.)
	for _, ti := range s.Tenants() {
		if ti.Tenant == "shed" && ti.Elements != 0 {
			t.Fatalf("shed tenant recorded %d elements, want 0", ti.Elements)
		}
	}
}

// TestDrainNoGoroutineLeak is the SIGTERM contract under -race: drive
// concurrent traffic, drain, and require the goroutine count to settle back
// to the pre-server baseline.
func TestDrainNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()

	reg := NewKernelRegistry()
	if err := reg.Add(synthKernel("synth", synthExec{})); err != nil {
		t.Fatal(err)
	}
	s, err := New(reg, Options{PipelineWorkers: 2, QueueCap: 4, MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			inputs := make([][]float64, 32)
			for i := range inputs {
				score := 0.0
				if i%4 == 0 {
					score = 0.9
				}
				inputs[i] = in(float64(i), score)
			}
			for r := 0; r < 5; r++ {
				// Shed responses are fine here; only liveness is under test.
				status, _, msg := invoke(t, hs.URL, InvokeRequest{
					Tenant: "c" + string(rune('a'+c)), Kernel: "synth", Inputs: inputs})
				if status != http.StatusOK {
					t.Errorf("client %d: status %d (%s)", c, status, msg)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	hs.Client().CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	hs.Close()
	waitForGoroutines(t, base)
}

// TestRunServesAndDrains exercises the Run path end to end on a real
// listener: serve a request, cancel the context (the SIGTERM path), and
// require a clean drain with no leaked goroutines.
func TestRunServesAndDrains(t *testing.T) {
	base := runtime.NumGoroutine()

	reg := NewKernelRegistry()
	if err := reg.Add(synthKernel("synth", synthExec{})); err != nil {
		t.Fatal(err)
	}
	s, err := New(reg, Options{Addr: "127.0.0.1:0", DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	// Addr :0 means the OS picks the port: wait for the listener to bind,
	// then round-trip one request.
	deadline := time.Now().Add(5 * time.Second)
	var url string
	for {
		if addr := s.Addr(); addr != "" {
			url = "http://" + addr
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never bound a listener")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, err := http.Get(url + "/healthz"); err != nil {
		t.Fatalf("GET /healthz: %v", err)
	} else {
		resp.Body.Close()
	}
	if status, resp, msg := invoke(t, url, InvokeRequest{Kernel: "synth", Inputs: [][]float64{in(1, 0.9)}}); status != 200 || resp.Fixed != 1 {
		t.Fatalf("invoke over Run: status %d fixed %d (%s)", status, resp.Fixed, msg)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()
	waitForGoroutines(t, base)
}
