package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestTunerStateSurvivesRestart is the ISSUE's integration criterion: drive a
// tenant's tuner away from its initial threshold, drain (which snapshots the
// state), start a fresh server over the same state file, and require the
// restored threshold to equal the pre-restart one — then prove the restored
// tuner is live by driving it further.
func TestTunerStateSurvivesRestart(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state.json")
	kernel := func() *Kernel { return synthKernel("synth", synthExec{}) }

	// Energy mode, budget 0.5, every element fired: each observed
	// 4-element invocation doubles the threshold (ratio 2).
	allFire := InvokeRequest{Tenant: "acme", Kernel: "synth", Mode: "energy", Target: 0.5,
		Inputs: [][]float64{in(1, 5), in(2, 5), in(3, 5), in(4, 5)}}

	reg1 := NewKernelRegistry()
	if err := reg1.Add(kernel()); err != nil {
		t.Fatal(err)
	}
	s1, err := New(reg1, Options{InvocationSize: 4, StatePath: state})
	if err != nil {
		t.Fatal(err)
	}
	hs1 := newTestHTTP(t, s1)
	status, resp, msg := invoke(t, hs1, allFire)
	if status != http.StatusOK {
		t.Fatalf("invoke: status %d (%s)", status, msg)
	}
	// The 4-element batch is exactly one invocation, observed by the stream
	// itself (4 % 4 == 0 leaves no carry): 0.10 doubles once.
	preRestart := resp.Threshold
	if preRestart != 0.20 {
		t.Fatalf("pre-restart threshold = %v, want 0.20", preRestart)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("state file not written: %v", err)
	}

	// Restart: a fresh registry and server over the same state path.
	reg2 := NewKernelRegistry()
	if err := reg2.Add(kernel()); err != nil {
		t.Fatal(err)
	}
	s2, err := New(reg2, Options{InvocationSize: 4, StatePath: state})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	if s2.Restored != 1 || s2.RestoreSkipped != 0 {
		t.Fatalf("restored=%d skipped=%d, want 1/0", s2.Restored, s2.RestoreSkipped)
	}
	tenants := s2.Tenants()
	if len(tenants) != 1 {
		t.Fatalf("tenants after restart = %+v", tenants)
	}
	got := tenants[0]
	if got.Threshold != preRestart {
		t.Fatalf("restored threshold = %v, want pre-restart %v", got.Threshold, preRestart)
	}
	if got.Mode != "Energy" || got.Tenant != "acme" || got.Kernel != "synth" || got.Checker != "score" {
		t.Fatalf("restored tenant = %+v", got)
	}
	if got.Elements != 4 || got.Fixed != 4 {
		t.Fatalf("restored lifetime stats = %d/%d, want 4/4", got.Elements, got.Fixed)
	}
	// The restore path must rebuild the drift monitor. No window closed
	// before the restart (4 elements under the default 256 window), so the
	// restored monitor is ok at the target the snapshot carried — an
	// energy-mode tuner has no TOQ error bound, so that is the manager
	// default.
	if got.Drift == nil {
		t.Fatal("restored tenant has no drift monitor")
	}
	if got.Drift.State != "ok" || got.Drift.Target != 0.10 {
		t.Fatalf("restored drift = %+v, want ok monitor at default target 0.10", got.Drift)
	}

	// The restored tuner keeps adapting from where it left off.
	hs2 := newTestHTTP(t, s2)
	status, resp, msg = invoke(t, hs2, allFire)
	if status != http.StatusOK {
		t.Fatalf("post-restart invoke: status %d (%s)", status, msg)
	}
	if resp.Threshold != 2*preRestart {
		t.Fatalf("post-restart threshold = %v, want %v (tuner still live)", resp.Threshold, 2*preRestart)
	}
}

// newTestHTTP mounts an already-built server under httptest (unlike
// newTestServer it does not own Shutdown — restart tests sequence that
// themselves).
func newTestHTTP(t *testing.T, s *Server) string {
	t.Helper()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return hs.URL
}

func TestLoadStateMissingFileIsFreshStart(t *testing.T) {
	tn := NewTenants(TunerDefaults{}, 0)
	restored, skipped, err := tn.LoadState(filepath.Join(t.TempDir(), "absent.json"), NewKernelRegistry())
	if restored != 0 || skipped != 0 || err != nil {
		t.Fatalf("missing file: %d/%d/%v, want 0/0/nil", restored, skipped, err)
	}
}

func TestLoadStateVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, []byte(`{"version":99,"tenants":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	tn := NewTenants(TunerDefaults{}, 0)
	if _, _, err := tn.LoadState(path, NewKernelRegistry()); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch err = %v", err)
	}
}

func TestLoadStateCorruptJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	tn := NewTenants(TunerDefaults{}, 0)
	if _, _, err := tn.LoadState(path, NewKernelRegistry()); err == nil {
		t.Fatal("corrupt JSON: want error")
	}
}

func TestLoadStateSkipsUnknownKernelAndChecker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	blob := `{"version":1,"tenants":[
		{"tenant":"a","kernel":"gone","checker":"score","tuner":{"mode":"TOQ","threshold":0.1,"targetError":0.1,"minThreshold":0.0001,"maxThreshold":10},"elements":1,"fixed":0,"degraded":0},
		{"tenant":"b","kernel":"synth","checker":"mystery","tuner":{"mode":"TOQ","threshold":0.1,"targetError":0.1,"minThreshold":0.0001,"maxThreshold":10},"elements":1,"fixed":0,"degraded":0},
		{"tenant":"c","kernel":"synth","checker":"score","tuner":{"mode":"TOQ","threshold":0.25,"targetError":0.25,"minThreshold":0.0001,"maxThreshold":10},"elements":7,"fixed":2,"degraded":1}
	]}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewKernelRegistry()
	if err := reg.Add(synthKernel("synth", synthExec{})); err != nil {
		t.Fatal(err)
	}
	tn := NewTenants(TunerDefaults{}, 0)
	restored, skipped, err := tn.LoadState(path, reg)
	if err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if restored != 1 || skipped != 2 {
		t.Fatalf("restored=%d skipped=%d, want 1/2", restored, skipped)
	}
	list := tn.List()
	if len(list) != 1 || list[0].Tenant != "c" || list[0].Threshold != 0.25 ||
		list[0].Elements != 7 || list[0].Fixed != 2 || list[0].Degraded != 1 {
		t.Fatalf("restored tenant = %+v", list)
	}
}

func TestLoadStateCheckerWithoutTunerIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	blob := `{"version":1,"tenants":[{"tenant":"a","kernel":"synth","checker":"score"}]}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewKernelRegistry()
	if err := reg.Add(synthKernel("synth", synthExec{})); err != nil {
		t.Fatal(err)
	}
	tn := NewTenants(TunerDefaults{}, 0)
	if _, _, err := tn.LoadState(path, reg); err == nil || !strings.Contains(err.Error(), "no tuner") {
		t.Fatalf("checker without tuner err = %v", err)
	}
}

// TestLoadStateRejectsMalformedSnapshot: a state file entry that no build
// can have written fails the restore with an error, at boot, instead of
// panicking (a drift ring of 2^50 entries) or installing an impossible
// engine position or tuner target.
func TestLoadStateRejectsMalformedSnapshot(t *testing.T) {
	reg := NewKernelRegistry()
	if err := reg.Add(synthKernel("synth", synthExec{})); err != nil {
		t.Fatal(err)
	}
	const tuner = `"tuner":{"mode":"TOQ","threshold":0.1,"targetError":0.1}`
	for _, entry := range []string{
		`{"tenant":"a","kernel":"synth","checker":"score",` + tuner + `,"drift":{"target":0.1,"n":1125899906842624}}`,
		`{"tenant":"a","kernel":"synth","checker":"score",` + tuner + `,"carryElements":-3}`,
		`{"tenant":"a","kernel":"synth","checker":"score","tuner":{"mode":"Energy","threshold":0.1,"iterationBudget":4}}`,
	} {
		path := filepath.Join(t.TempDir(), "state.json")
		if err := os.WriteFile(path, []byte(`{"version":1,"tenants":[`+entry+`]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		tn := NewTenants(TunerDefaults{}, 0)
		if restored, _, err := tn.LoadState(path, reg); err == nil || restored != 0 {
			t.Fatalf("LoadState(%s) = %d restored, %v; want an error", entry, restored, err)
		}
		// At boot the entry fails New, which leaves no goroutine running.
		base := runtime.NumGoroutine()
		if s, err := New(reg, Options{StatePath: path, SLO: SLOOptions{Enabled: true}, HistoryInterval: time.Second}); err == nil {
			s.Shutdown(context.Background())
			t.Fatalf("New restored %s", entry)
		}
		waitForGoroutines(t, base)
	}
}

// TestLargestConfigurationRestores: a server at the largest drift ring and
// invocation size New accepts writes snapshots that it restores, both as its
// own handoff export and as its state file at restart, and New refuses one
// past either bound. So no server writes state that a restore refuses.
func TestLargestConfigurationRestores(t *testing.T) {
	registry := func() *Registry {
		reg := NewKernelRegistry()
		if err := reg.Add(synthKernel("synth", synthExec{})); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	for _, opts := range []Options{{Drift: DriftConfig{N: MaxDriftN + 1}}, {InvocationSize: MaxInvocationSize + 1}} {
		if s, err := New(registry(), opts); err == nil {
			s.Shutdown(context.Background())
			t.Fatalf("New accepted drift n=%d, invocation size %d", opts.Drift.N, opts.InvocationSize)
		}
	}

	state := filepath.Join(t.TempDir(), "state.json")
	opts := Options{InvocationSize: MaxInvocationSize, Drift: DriftConfig{Window: 1, N: MaxDriftN}, StatePath: state}
	s1, err := New(registry(), opts)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := newTestHTTP(t, s1)
	// One element per drift window: three closed verdicts in a ring of
	// MaxDriftN, and a carry of three elements.
	if status, _, msg := invoke(t, hs1, InvokeRequest{Tenant: "acme", Kernel: "synth",
		Inputs: [][]float64{in(1, 0), in(2, 5), in(3, 0)}}); status != http.StatusOK {
		t.Fatalf("invoke: %d %s", status, msg)
	}
	// A tenant whose carry is the largest a restore accepts.
	edge := TenantState{Version: stateVersion, Tenant: "edge", States: []tenantSnapshot{{
		Tenant: "edge", Kernel: "synth", Checker: "none", CarryElements: MaxInvocationSize,
	}}}
	if status, _, msg := putState(t, hs1, "edge", edge); status != http.StatusOK {
		t.Fatalf("edge import: %d %s", status, msg)
	}
	exports := map[string]TenantState{}
	for _, id := range []string{"acme", "edge"} {
		_, st := getState(t, hs1, id)
		if len(st.States) != 1 {
			t.Fatalf("%s export = %+v", id, st)
		}
		if status, _, msg := putState(t, hs1, id, st); status != http.StatusOK {
			t.Fatalf("re-import of %s's own export: %d %s", id, status, msg)
		}
		exports[id] = st
	}
	if got := exports["acme"].States[0]; got.Drift == nil || got.Drift.N != MaxDriftN || len(got.Drift.Verdicts) != 3 || got.CarryElements != 3 {
		t.Fatalf("acme export = %+v (drift %+v), want a ring of %d with 3 verdicts and a carry of 3", got, got.Drift, MaxDriftN)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	s2, err := New(registry(), opts)
	if err != nil {
		t.Fatalf("restart from the state file this build wrote: %v", err)
	}
	defer s2.Shutdown(context.Background())
	if s2.Restored != 2 {
		t.Fatalf("restored %d tenants, want 2", s2.Restored)
	}
	hs2 := newTestHTTP(t, s2)
	for id, want := range exports {
		if _, got := getState(t, hs2, id); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s after restart = %+v, want %+v", id, got, want)
		}
	}
}

// TestSaveStateDeterministic pins the snapshot's byte-for-byte determinism:
// two saves of the same state produce identical files regardless of map
// iteration order.
func TestSaveStateDeterministic(t *testing.T) {
	reg := NewKernelRegistry()
	if err := reg.Add(synthKernel("synth", synthExec{})); err != nil {
		t.Fatal(err)
	}
	k, _ := reg.Get("synth")
	tn := NewTenants(TunerDefaults{}, 0)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if _, err := tn.get(TenantKey{Tenant: name, Kernel: "synth"}, k, "", nil); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := tn.SaveState(p1); err != nil {
		t.Fatal(err)
	}
	if err := tn.SaveState(p2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("snapshots differ:\n%s\n----\n%s", b1, b2)
	}
	if !strings.Contains(string(b1), `"tenant": "alpha"`) {
		t.Fatalf("snapshot missing tenant: %s", b1)
	}
}

// TestSaveStateCrashMidWriteLeavesSnapshotIntact is the atomicity audit: a
// writer that dies between opening its temp file and the rename must leave
// the previous snapshot byte-identical and restorable — the stale temp file
// is garbage, not corruption.
func TestSaveStateCrashMidWriteLeavesSnapshotIntact(t *testing.T) {
	reg := NewKernelRegistry()
	if err := reg.Add(synthKernel("synth", synthExec{})); err != nil {
		t.Fatal(err)
	}
	k, _ := reg.Get("synth")
	tn := NewTenants(TunerDefaults{Mode: 0, Target: 0.10}, 4)
	if _, err := tn.get(TenantKey{Tenant: "acme", Kernel: "synth"}, k, "", nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := tn.SaveState(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate the crash: a half-written temp file in the snapshot
	// directory, truncated mid-JSON, exactly as SaveState would leave it if
	// the process died before the rename.
	stale := filepath.Join(dir, ".rumba-state-12345.tmp")
	if err := os.WriteFile(stale, good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// Restore ignores the temp file and reads the intact snapshot.
	tn2 := NewTenants(TunerDefaults{}, 4)
	restored, skipped, err := tn2.LoadState(path, reg)
	if err != nil || restored != 1 || skipped != 0 {
		t.Fatalf("LoadState after crash = %d/%d, %v", restored, skipped, err)
	}
	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(now) != string(good) {
		t.Fatalf("snapshot changed by crashed writer:\n%s\n----\n%s", now, good)
	}

	// The next successful save replaces the snapshot atomically; the stale
	// temp file from the crashed writer does not interfere.
	if err := tn.SaveState(path); err != nil {
		t.Fatalf("SaveState over stale temp: %v", err)
	}
	if _, _, err := tn2.LoadState(path, reg); err != nil {
		t.Fatalf("LoadState after re-save: %v", err)
	}
}

// TestDriftHistorySurvivesRestart: closed drift windows now ride the
// StatePath snapshot (they already rode the handoff path), so a violating
// tenant is still violating after a restart instead of silently resetting
// its alert.
func TestDriftHistorySurvivesRestart(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state.json")
	opts := Options{InvocationSize: 8, StatePath: state,
		Drift: DriftConfig{Window: 4, K: 2, N: 3}}

	reg1 := NewKernelRegistry()
	if err := reg1.Add(synthKernel("synth", synthExec{})); err != nil {
		t.Fatal(err)
	}
	s1, err := New(reg1, opts)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := newTestHTTP(t, s1)
	send := func(score float64) {
		t.Helper()
		inputs := make([][]float64, 8)
		for i := range inputs {
			inputs[i] = in(float64(i), score)
		}
		status, _, msg := invoke(t, hs1, InvokeRequest{
			Tenant: "acme", Kernel: "synth", Inputs: inputs,
			Mode: "energy", Target: 0.25,
		})
		if status != http.StatusOK {
			t.Fatalf("invoke: %d %s", status, msg)
		}
	}
	for i := 0; i < 3; i++ {
		send(0.9) // raise the threshold over the drift target
	}
	for i := 0; i < 2; i++ {
		send(0.15) // breach: approximate deliveries above the 0.10 target
	}
	pre := s1.Tenants()[0].Drift
	if pre == nil || pre.State != "violating" {
		t.Fatalf("pre-restart drift = %+v, want violating", pre)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	reg2 := NewKernelRegistry()
	if err := reg2.Add(synthKernel("synth", synthExec{})); err != nil {
		t.Fatal(err)
	}
	s2, err := New(reg2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	post := s2.Tenants()[0].Drift
	if post == nil || post.State != "violating" ||
		post.Windows != pre.Windows || post.Violations != pre.Violations {
		t.Fatalf("post-restart drift = %+v, want %+v", post, pre)
	}
}
