package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"testing"

	"rumba/internal/core"
	"rumba/internal/rng"
)

// framingModes are the tuner policies the framing tests drive, each with a
// target its NewTuner accepts.
var framingModes = []struct {
	mode   string
	target float64
}{{"toq", 0.10}, {"energy", 0.25}, {"quality", 0.5}}

// framingSplits cuts n elements into request sizes: a 1-element request
// first, then random requests of up to one and a half invocations (a
// quarter of them 1-element) and, third, one spanning at least two
// invocation boundaries.
func framingSplits(r *rng.Stream, n, inv int) []int {
	var sizes []int
	for left := n; left > 0; {
		k := 1 + r.Intn(inv+inv/2)
		switch {
		case len(sizes) == 0 || r.Intn(4) == 0:
			k = 1
		case len(sizes) == 2:
			k = 2*inv + 3
		}
		k = min(k, left)
		sizes = append(sizes, k)
		left -= k
	}
	return sizes
}

// exportTuner returns the JSON bytes of one tenant's exported tuner and its
// exported carry.
func exportTuner(t *testing.T, url, tenant string) ([]byte, [2]int) {
	t.Helper()
	status, st := getState(t, url, tenant)
	if status != http.StatusOK || len(st.States) != 1 || st.States[0].Tuner == nil {
		t.Fatalf("export %s: status %d, %+v", tenant, status, st)
	}
	b, err := st.States[0].Tuner.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b, [2]int{st.States[0].CarryElements, st.States[0].CarryFired}
}

// sameOutputs requires got to equal want bit for bit.
func sameOutputs(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: output %d = %v, want %v", what, i, got[i], want[i])
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: output %d = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
}

// TestTenantFramingInvariance sends one tenant's element sequence as
// random splits into requests — 1-element requests, requests spanning
// several invocations, and a GET state → PUT state handoff onto a second
// server between two requests — in every tuner mode. Every split must
// deliver bit for bit the outputs of one request carrying the whole
// sequence, and end with the same exported tuner and carry.
func TestTenantFramingInvariance(t *testing.T) {
	const inv, n = 4, 48
	_, src := newTestServer(t, Options{InvocationSize: inv}, synthKernel("synth", synthExec{}))
	_, dst := newTestServer(t, Options{InvocationSize: inv}, synthKernel("synth", synthExec{}))
	r := rng.NewNamed("framing")
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = in(float64(i), r.Range(0, 0.3))
	}
	for _, m := range framingModes {
		req := func(tenant string, part [][]float64) InvokeRequest {
			return InvokeRequest{Tenant: tenant, Kernel: "synth", Inputs: part, Mode: m.mode, Target: m.target}
		}
		ref := "ref-" + m.mode
		status, whole, msg := invoke(t, src.URL, req(ref, inputs))
		if status != http.StatusOK {
			t.Fatalf("%s whole sequence: %d %s", m.mode, status, msg)
		}
		wantTuner, wantCarry := exportTuner(t, src.URL, ref)
		for split := range 6 {
			tenant := fmt.Sprintf("split%d-%s", split, m.mode)
			sizes := framingSplits(r, n, inv)
			handoff := len(sizes) / 2
			url := src.URL
			var got [][]float64
			lo := 0
			for c, k := range sizes {
				if c == handoff {
					status, st := getState(t, url, tenant)
					if status != http.StatusOK {
						t.Fatalf("%s: export before request %d: %d", tenant, c, status)
					}
					if status, _, msg := putState(t, dst.URL, tenant, st); status != http.StatusOK {
						t.Fatalf("%s: import before request %d: %d %s", tenant, c, status, msg)
					}
					url = dst.URL
				}
				status, resp, msg := invoke(t, url, req(tenant, inputs[lo:lo+k]))
				if status != http.StatusOK {
					t.Fatalf("%s: request %d: %d %s", tenant, c, status, msg)
				}
				got = append(got, resp.Outputs...)
				lo += k
			}
			what := fmt.Sprintf("%s split %v, handoff before request %d", m.mode, sizes, handoff)
			sameOutputs(t, what, got, whole.Outputs)
			gotTuner, gotCarry := exportTuner(t, url, tenant)
			if !bytes.Equal(gotTuner, wantTuner) || gotCarry != wantCarry {
				t.Fatalf("%s: tuner %s carry %v, want %s carry %v", what, gotTuner, gotCarry, wantTuner, wantCarry)
			}
		}
	}
}

// cancelExec is synthExec that cancels a request from inside the
// accelerator when it reaches the input valued at (cancel is read only
// then).
type cancelExec struct {
	synthExec
	at     float64
	cancel context.CancelFunc
}

func (e *cancelExec) Invoke(in []float64) []float64 {
	if in[0] == e.at && e.cancel != nil {
		e.cancel()
	}
	return e.synthExec.Invoke(in)
}

// TestFailedRequestLeavesNoTrace cancels an Energy tenant's request from
// inside the accelerator, in its third chunk, after two chunks whose
// elements all fired have closed an invocation. The failed request must
// leave the tenant's exported state byte for byte as it was, and the
// tenant's next request must deliver what a twin tenant that never saw the
// failed request delivers.
func TestFailedRequestLeavesNoTrace(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ex := &cancelExec{at: -1, cancel: cancel}
	s, hs := newTestServer(t, Options{BatchSize: 4, InvocationSize: 4,
		Defaults: TunerDefaults{Mode: core.ModeEnergy, Target: 0.25}}, synthKernel("synth", ex))
	warm := [][]float64{in(1, 0.3), in(2, 0), in(3, 0.05), in(4, 0.2), in(5, 0.3), in(6, 0)}
	for _, tenant := range []string{"acme", "twin"} {
		if status, _, msg := invoke(t, hs.URL, InvokeRequest{Tenant: tenant, Kernel: "synth", Inputs: warm}); status != http.StatusOK {
			t.Fatalf("warm-up %s: %d %s", tenant, status, msg)
		}
	}
	export := func() []byte {
		t.Helper()
		b, err := json.Marshal(s.tenants.exportTenant("acme"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := export()

	failed := make([][]float64, 12)
	for i := range failed {
		failed[i] = in(100+float64(i), 0.9)
	}
	failed[9] = in(ex.at, 0.9)
	k, _ := s.reg.Get("synth")
	ts, err := s.tenants.get(TenantKey{Tenant: "acme", Kernel: "synth"}, k, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	j := &job{ctx: ctx, kernel: k, tenant: ts, inputs: failed, done: make(chan struct{})}
	if !s.adm.submit(j) {
		t.Fatal("failed request was not admitted")
	}
	<-j.done
	if !errors.Is(j.err, context.Canceled) || len(j.results) != 8 {
		t.Fatalf("failed request returned %d results and %v, want the first 8 and context.Canceled", len(j.results), j.err)
	}
	if after := export(); !bytes.Equal(after, before) {
		t.Fatalf("failed request changed the tenant's state:\nbefore %s\nafter  %s", before, after)
	}

	next := [][]float64{in(7, 0.3), in(8, 0.2), in(9, 0), in(10, 0.3), in(11, 0.05), in(12, 0.3)}
	_, got, _ := invoke(t, hs.URL, InvokeRequest{Tenant: "acme", Kernel: "synth", Inputs: next})
	_, want, _ := invoke(t, hs.URL, InvokeRequest{Tenant: "twin", Kernel: "synth", Inputs: next})
	sameOutputs(t, "next request after the failed one", got.Outputs, want.Outputs)
	gotTuner, gotCarry := exportTuner(t, hs.URL, "acme")
	wantTuner, wantCarry := exportTuner(t, hs.URL, "twin")
	if !bytes.Equal(gotTuner, wantTuner) || gotCarry != wantCarry {
		t.Fatalf("tuner %s carry %v after the failed request, twin has %s carry %v", gotTuner, gotCarry, wantTuner, wantCarry)
	}
}
