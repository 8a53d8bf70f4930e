package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"

	"rumba/internal/core"
)

// getState GETs one tenant's state export.
func getState(t *testing.T, url, tenant string) (int, TenantState) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/tenants/%s/state", url, tenant))
	if err != nil {
		t.Fatalf("GET state: %v", err)
	}
	defer resp.Body.Close()
	var st TenantState
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode state: %v", err)
		}
	}
	return resp.StatusCode, st
}

// putState PUTs a state envelope at a tenant.
func putState(t *testing.T, url, tenant string, st TenantState) (int, ImportReport, string) {
	t.Helper()
	body, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	req, err := http.NewRequest(http.MethodPut,
		fmt.Sprintf("%s/v1/tenants/%s/state", url, tenant), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT state: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, ImportReport{}, e.Error
	}
	var rep ImportReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatalf("decode import report: %v", err)
	}
	return resp.StatusCode, rep, ""
}

func deleteState(t *testing.T, url, tenant string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/v1/tenants/%s/state", url, tenant), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE state: %v", err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// driveEnergyTenant sends enough over-budget invocations to move an
// energy-mode tuner's threshold off its starting point, so state equality
// checks compare a genuinely adapted trajectory, not a default.
func driveEnergyTenant(t *testing.T, url, tenant string) float64 {
	t.Helper()
	var threshold float64
	for round := 0; round < 4; round++ {
		inputs := make([][]float64, 8)
		for i := range inputs {
			inputs[i] = in(float64(i), 0.9) // every element fires: way over budget
		}
		status, resp, errMsg := invoke(t, url, InvokeRequest{
			Tenant: tenant, Kernel: "synth", Inputs: inputs,
			Mode: "energy", Target: 0.25,
		})
		if status != http.StatusOK {
			t.Fatalf("invoke: %d %s", status, errMsg)
		}
		threshold = resp.Threshold
	}
	if threshold == 0.1 {
		t.Fatalf("energy tuner never moved off its 0.1 start")
	}
	return threshold
}

func TestTenantStateExportImportRoundTrip(t *testing.T) {
	// Source node: small invocation size so the tuner observes every request.
	_, src := newTestServer(t, Options{InvocationSize: 8}, synthKernel("synth", synthExec{}))
	threshold := driveEnergyTenant(t, src.URL, "acme")

	status, st := getState(t, src.URL, "acme")
	if status != http.StatusOK {
		t.Fatalf("export status = %d", status)
	}
	if st.Tenant != "acme" || len(st.States) != 1 {
		t.Fatalf("export = %+v", st)
	}
	snap := st.States[0]
	if snap.Kernel != "synth" || snap.Checker != "score" || snap.Tuner == nil {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Tuner.Threshold != threshold {
		t.Fatalf("exported threshold %v != live %v", snap.Tuner.Threshold, threshold)
	}
	if snap.Elements != 32 {
		t.Fatalf("exported elements = %d, want 32", snap.Elements)
	}

	// Destination node: import, then verify the restored tenant serves with
	// the moved trajectory.
	_, dst := newTestServer(t, Options{InvocationSize: 8}, synthKernel("synth", synthExec{}))
	status, rep, errMsg := putState(t, dst.URL, "acme", st)
	if status != http.StatusOK {
		t.Fatalf("import: %d %s", status, errMsg)
	}
	if rep.Imported != 1 || rep.Skipped != 0 || rep.Replaced != 0 {
		t.Fatalf("import report = %+v", rep)
	}
	istatus, resp, _ := invoke(t, dst.URL, InvokeRequest{
		Tenant: "acme", Kernel: "synth",
		Inputs: [][]float64{in(1, 0)},
	})
	if istatus != http.StatusOK {
		t.Fatalf("post-import invoke: %d", istatus)
	}
	if resp.Threshold != threshold {
		t.Fatalf("restored threshold = %v, want %v", resp.Threshold, threshold)
	}

	// Old owner drops the moved state; a second delete and a post-delete
	// export both 404.
	if status := deleteState(t, src.URL, "acme"); status != http.StatusOK {
		t.Fatalf("delete status = %d", status)
	}
	if status := deleteState(t, src.URL, "acme"); status != http.StatusNotFound {
		t.Fatalf("second delete status = %d, want 404", status)
	}
	if status, _ := getState(t, src.URL, "acme"); status != http.StatusNotFound {
		t.Fatalf("post-delete export status = %d, want 404", status)
	}
}

func TestTenantStateImportValidation(t *testing.T) {
	_, hs := newTestServer(t, Options{}, synthKernel("synth", synthExec{}))

	// Unknown tenant export.
	if status, _ := getState(t, hs.URL, "ghost"); status != http.StatusNotFound {
		t.Fatalf("ghost export status = %d, want 404", status)
	}

	// Version mismatch.
	bad := TenantState{Version: 99, Tenant: "acme"}
	if status, _, _ := putState(t, hs.URL, "acme", bad); status != http.StatusBadRequest {
		t.Fatalf("version-mismatch import status = %d, want 400", status)
	}

	// Entry for a different tenant than the path.
	mixed := TenantState{Version: stateVersion, Tenant: "acme", States: []tenantSnapshot{{
		Tenant: "other", Kernel: "synth", Checker: "none",
	}}}
	if status, _, msg := putState(t, hs.URL, "acme", mixed); status != http.StatusBadRequest {
		t.Fatalf("cross-tenant import = %d %s, want 400", status, msg)
	}

	// Unknown kernel entries are skipped, not fatal (mixed-registry cluster).
	skip := TenantState{Version: stateVersion, Tenant: "acme", States: []tenantSnapshot{{
		Tenant: "acme", Kernel: "missing", Checker: "none",
	}}}
	status, rep, _ := putState(t, hs.URL, "acme", skip)
	if status != http.StatusOK || rep.Skipped != 1 || rep.Imported != 0 {
		t.Fatalf("skip import = %d %+v", status, rep)
	}

	// Malformed snapshots are refused before anything is built from them: a
	// drift ring far beyond MaxDriftN (which would ask the runtime for 2^50
	// verdict slots), a carry no engine can be in (one of MaxInt elements
	// would overflow the engine's count at its next element), and tuner
	// targets NewTuner refuses for their mode.
	tuner := func(mode core.TunerMode, targetError, budget, keepUp float64) *core.Tuner {
		return &core.Tuner{Mode: mode, Threshold: 0.1, TargetError: targetError, IterationBudget: budget, KeepUpFraction: keepUp}
	}
	good := tuner(core.ModeTOQ, 0.1, 0, 0)
	for _, c := range []struct {
		name string
		snap tenantSnapshot
	}{
		{"drift ring 2^50", tenantSnapshot{Tuner: good, Drift: &DriftSnapshot{N: 1 << 50}}},
		{"drift ring above the bound", tenantSnapshot{Tuner: good, Drift: &DriftSnapshot{N: MaxDriftN + 1}}},
		{"negative carry", tenantSnapshot{Tuner: good, CarryElements: -1}},
		{"carry above the largest invocation", tenantSnapshot{Tuner: good, CarryElements: MaxInvocationSize + 1}},
		{"carry of MaxInt elements", tenantSnapshot{Tuner: good, CarryElements: math.MaxInt, CarryFired: 1}},
		{"negative carry fires", tenantSnapshot{Tuner: good, CarryElements: 2, CarryFired: -1}},
		{"more carry fires than elements", tenantSnapshot{Tuner: good, CarryElements: 2, CarryFired: 3}},
		{"negative error bound", tenantSnapshot{Tuner: tuner(core.ModeTOQ, -0.1, 0, 0)}},
		{"zero energy budget", tenantSnapshot{Tuner: tuner(core.ModeEnergy, 0, 0, 0)}},
		{"energy budget above 1", tenantSnapshot{Tuner: tuner(core.ModeEnergy, 0, 1.5, 0)}},
		{"zero keep-up fraction", tenantSnapshot{Tuner: tuner(core.ModeQuality, 0, 0, 0)}},
		{"keep-up fraction above 1", tenantSnapshot{Tuner: tuner(core.ModeQuality, 0, 0, 2)}},
	} {
		c.snap.Tenant, c.snap.Kernel, c.snap.Checker = "acme", "synth", "score"
		st := TenantState{Version: stateVersion, Tenant: "acme", States: []tenantSnapshot{c.snap}}
		if status, _, msg := putState(t, hs.URL, "acme", st); status != http.StatusBadRequest {
			t.Fatalf("%s: import = %d %s, want 400", c.name, status, msg)
		}
	}

	// A carry at or beyond the invocation size is one this node's engine
	// can be in: its next element closes the invocation.
	long := TenantState{Version: stateVersion, Tenant: "acme", States: []tenantSnapshot{{
		Tenant: "acme", Kernel: "synth", Checker: "score", Tuner: good, CarryElements: 600, CarryFired: 7,
	}}}
	if status, rep, msg := putState(t, hs.URL, "acme", long); status != http.StatusOK || rep.Imported != 1 {
		t.Fatalf("long-carry import = %d %+v %s, want 200 with 1 imported", status, rep, msg)
	}
}

func TestTenantStateImportReplacesLiveState(t *testing.T) {
	_, src := newTestServer(t, Options{InvocationSize: 8}, synthKernel("synth", synthExec{}))
	threshold := driveEnergyTenant(t, src.URL, "acme")
	_, st := getState(t, src.URL, "acme")

	// Destination already served the tenant inside the handoff window: the
	// import overwrites that fresh state with the authoritative snapshot.
	_, dst := newTestServer(t, Options{InvocationSize: 8}, synthKernel("synth", synthExec{}))
	if status, _, _ := invoke(t, dst.URL, InvokeRequest{
		Tenant: "acme", Kernel: "synth", Inputs: [][]float64{in(1, 0)},
		Mode: "energy", Target: 0.25,
	}); status != http.StatusOK {
		t.Fatal("pre-import invoke failed")
	}
	status, rep, errMsg := putState(t, dst.URL, "acme", st)
	if status != http.StatusOK || rep.Replaced != 1 {
		t.Fatalf("import = %d %+v %s, want replaced=1", status, rep, errMsg)
	}
	_, resp, _ := invoke(t, dst.URL, InvokeRequest{
		Tenant: "acme", Kernel: "synth", Inputs: [][]float64{in(1, 0)},
	})
	if resp.Threshold != threshold {
		t.Fatalf("threshold after replacing import = %v, want %v", resp.Threshold, threshold)
	}
}

func TestDriftStateSurvivesHandoff(t *testing.T) {
	// The realistic violating scenario: an energy-mode tenant whose budget
	// control raises the firing threshold above its quality target. Warm
	// rounds with every element firing drive the threshold up (over budget →
	// raise); then elements scoring 0.15 ship approximate under the raised
	// threshold with estimates above the 0.10 drift target, breaching every
	// 4-element window until 2-of-3 flips the monitor to violating.
	opts := Options{
		InvocationSize: 8,
		Drift:          DriftConfig{Window: 4, K: 2, N: 3},
	}
	_, src := newTestServer(t, opts, synthKernel("synth", synthExec{}))
	send := func(score float64) {
		t.Helper()
		inputs := make([][]float64, 8)
		for i := range inputs {
			inputs[i] = in(float64(i), score)
		}
		status, _, errMsg := invoke(t, src.URL, InvokeRequest{
			Tenant: "acme", Kernel: "synth", Inputs: inputs,
			Mode: "energy", Target: 0.25,
		})
		if status != http.StatusOK {
			t.Fatalf("invoke: %d %s", status, errMsg)
		}
	}
	for round := 0; round < 3; round++ {
		send(0.9) // all fire: threshold climbs 0.1 → 0.2 → 0.4 → 0.8
	}
	for round := 0; round < 2; round++ {
		send(0.15) // under threshold, over drift target: windows breach
	}
	_, st := getState(t, src.URL, "acme")
	if len(st.States) != 1 || st.States[0].Drift == nil {
		t.Fatalf("export missing drift state: %+v", st)
	}
	drift := st.States[0].Drift
	if drift.State != "violating" {
		t.Fatalf("source drift state = %q, want violating (windows=%d violations=%d)",
			drift.State, drift.Windows, drift.Violations)
	}

	_, dst := newTestServer(t, opts, synthKernel("synth", synthExec{}))
	if status, rep, errMsg := putState(t, dst.URL, "acme", st); status != http.StatusOK || rep.Imported != 1 {
		t.Fatalf("import: %d %+v %s", status, rep, errMsg)
	}
	// The restored tenant is still violating before serving a single element
	// on the new node.
	resp, err := http.Get(dst.URL + "/v1/tenants/acme/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health TenantHealth
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Healthy {
		t.Fatalf("restored tenant reports healthy; drift history was dropped: %+v", health)
	}
	if len(health.Kernels) != 1 || health.Kernels[0].Drift == nil ||
		health.Kernels[0].Drift.State != "violating" ||
		health.Kernels[0].Drift.Violations != drift.Violations {
		t.Fatalf("restored drift info = %+v, want violating with %d violations",
			health.Kernels[0].Drift, drift.Violations)
	}
}

// TestDriftSnapshotRingRoundTrip unit-tests the verdict-ring unroll/rebuild
// across wrap-around, which the HTTP tests above cannot isolate.
func TestDriftSnapshotRingRoundTrip(t *testing.T) {
	d := newDriftMonitor(DriftConfig{Window: 2, K: 2, N: 3}, 0.05)
	// Close 5 windows with verdicts T,F,T,T,F — the ring (N=3) should hold
	// T,T,F oldest-first afterwards.
	verdict := []bool{true, false, true, true, false}
	for _, breach := range verdict {
		est := 0.01
		if breach {
			est = 0.5
		}
		d.estSum, d.n = est*2, 2
		d.closeWindow()
	}
	snap := d.snapshot()
	want := []bool{true, true, false}
	if len(snap.Verdicts) != len(want) {
		t.Fatalf("snapshot verdicts = %v, want %v", snap.Verdicts, want)
	}
	for i := range want {
		if snap.Verdicts[i] != want[i] {
			t.Fatalf("snapshot verdicts = %v, want %v", snap.Verdicts, want)
		}
	}
	if snap.Windows != 5 || snap.Violations != 3 {
		t.Fatalf("totals = %d windows %d violations", snap.Windows, snap.Violations)
	}

	r := restoreDriftMonitor(snap)
	if r.state != d.state {
		t.Fatalf("restored state %v != %v", r.state, d.state)
	}
	rs := r.snapshot()
	if fmt.Sprint(rs) != fmt.Sprint(snap) {
		t.Fatalf("restore not idempotent:\n got %+v\nwant %+v", rs, snap)
	}
	// One more clean window on the restored monitor must evict the oldest
	// verdict (true), leaving T,F,F → 1 breach below K → drifting.
	r.estSum, r.n = 0.01*2, 2
	r.closeWindow()
	if r.state != DriftDrifting {
		t.Fatalf("state after clean window = %v, want drifting", r.state)
	}
}

// TestConcurrentHandoffUnderInvokes is the handoff race under -race: invokes
// in flight for a tenant while its state is concurrently exported, imported
// back, and re-exported. Nothing may crash, race, or wedge; every response
// must be well-formed.
func TestConcurrentHandoffUnderInvokes(t *testing.T) {
	_, hs := newTestServer(t, Options{InvocationSize: 8, QueueCap: 256, MaxInFlight: 256},
		synthKernel("synth", synthExec{}))

	// Seed the tenant so the first export finds it.
	if status, _, _ := invoke(t, hs.URL, InvokeRequest{
		Tenant: "acme", Kernel: "synth", Inputs: [][]float64{in(1, 0.5)},
		Mode: "energy", Target: 0.25,
	}); status != http.StatusOK {
		t.Fatal("seed invoke failed")
	}

	const invokers, rounds = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < invokers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				inputs := [][]float64{in(float64(i), 0.5), in(float64(i), 0)}
				body, _ := json.Marshal(InvokeRequest{Tenant: "acme", Kernel: "synth", Inputs: inputs})
				resp, err := http.Post(hs.URL+"/v1/invoke", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("invoke: %v", err)
					return
				}
				// Shed (200, degraded) and success are both fine; what must
				// not happen is a handler crash (5xx) from the racing import.
				if resp.StatusCode != http.StatusOK {
					t.Errorf("invoke status = %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			status, st := getState(t, hs.URL, "acme")
			if status != http.StatusOK {
				continue // export can race the import's brief absence window
			}
			if status, _, msg := putState(t, hs.URL, "acme", st); status != http.StatusOK {
				t.Errorf("import round %d: %d %s", i, status, msg)
				return
			}
		}
	}()
	wg.Wait()

	// The tenant survived the churn and still serves.
	status, resp, errMsg := invoke(t, hs.URL, InvokeRequest{
		Tenant: "acme", Kernel: "synth", Inputs: [][]float64{in(1, 0)},
	})
	if status != http.StatusOK || resp.Elements != 1 {
		t.Fatalf("post-churn invoke = %d %+v %s", status, resp, errMsg)
	}
}
