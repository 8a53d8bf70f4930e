package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rumba/internal/core"
)

// stateVersion guards against loading snapshots written by an incompatible
// build.
const stateVersion = 1

// tenantSnapshot is the persisted form of one tenant×kernel: the complete
// tuner state (threshold, targets, clamp bounds — see core.Tuner's JSON
// round trip), the drift monitor's closed-window history, the engine's
// core.Carry (the elements since its last invocation boundary and their
// fires, which the restored engine completes), and the lifetime counters.
// The EMA checker's moving average is not carried: a restored EMA tenant
// starts a fresh history. It is both the StatePath on-disk format and the
// /v1/tenants/{id}/state wire format the cluster handoff moves between
// nodes.
type tenantSnapshot struct {
	Tenant  string         `json:"tenant"`
	Kernel  string         `json:"kernel"`
	Checker string         `json:"checker"`
	Tuner   *core.Tuner    `json:"tuner,omitempty"`
	Drift   *DriftSnapshot `json:"drift,omitempty"`

	CarryElements int `json:"carryElements,omitempty"`
	CarryFired    int `json:"carryFired,omitempty"`

	Elements int64 `json:"elements"`
	Fixed    int64 `json:"fixed"`
	Degraded int64 `json:"degraded"`
}

// stateFile is the on-disk snapshot of every live tenant.
type stateFile struct {
	Version int              `json:"version"`
	Tenants []tenantSnapshot `json:"tenants"`
}

// snapshotLocked exports one tenant's durable state. Caller holds ts.mu —
// which is exactly the drain: an in-flight request for the tenant finishes
// before the lock is acquired, so the snapshot always captures a
// request-boundary-consistent trajectory.
//
// The tuner is copied, not aliased: the snapshot outlives the lock (it is
// JSON-marshalled later, possibly while new invokes mutate the live tuner),
// and core.Tuner is all value fields so a shallow copy is a full one.
func (ts *tenant) snapshotLocked() tenantSnapshot {
	var tuner *core.Tuner
	if ts.tuner != nil {
		c := *ts.tuner
		tuner = &c
	}
	carry := ts.engine.Carry()
	return tenantSnapshot{
		Tenant:        ts.key.Tenant,
		Kernel:        ts.key.Kernel,
		Checker:       ts.checkerName,
		Tuner:         tuner,
		Drift:         ts.drift.snapshot(),
		CarryElements: carry.Elements,
		CarryFired:    carry.Fired,
		Elements:      ts.elements,
		Fixed:         ts.fixed,
		Degraded:      ts.degraded,
	}
}

// errSkipSnapshot marks a snapshot entry that cannot be restored on this
// node but should not abort the whole restore (e.g. its kernel is no longer
// registered).
var errSkipSnapshot = errors.New("server: snapshot entry not restorable here")

// validate rejects a snapshot no tenant can have written: a drift ring above
// MaxDriftN, a carry with elements outside [0, MaxInvocationSize] or fires
// outside [0, elements], or a tuner target NewTuner refuses for its mode. A
// carry at or above this node's invocation size is accepted: its next
// element closes it.
func (snap *tenantSnapshot) validate() error {
	var err error
	switch {
	case snap.Drift != nil && snap.Drift.N > MaxDriftN:
		err = fmt.Errorf("drift ring n=%d exceeds %d", snap.Drift.N, MaxDriftN)
	case snap.CarryElements < 0 || snap.CarryElements > MaxInvocationSize ||
		snap.CarryFired < 0 || snap.CarryFired > snap.CarryElements:
		err = fmt.Errorf("carry of %d fired in %d elements", snap.CarryFired, snap.CarryElements)
	case snap.Tuner != nil:
		err = snap.Tuner.Validate()
	}
	if err != nil {
		return fmt.Errorf("server: state: tenant %s/%s: %w", snap.Tenant, snap.Kernel, err)
	}
	return nil
}

// restoreTenant rebuilds a live tenant from a snapshot against the registry.
// Entries whose kernel or checker this node does not have return
// errSkipSnapshot (wrapped, with the reason); structural errors, a malformed
// snapshot among them, are fatal.
func (t *Tenants) restoreTenant(snap tenantSnapshot, reg *Registry) (*tenant, error) {
	if err := snap.validate(); err != nil {
		return nil, err
	}
	k, ok := reg.Get(snap.Kernel)
	if !ok {
		return nil, fmt.Errorf("%w: kernel %q not registered", errSkipSnapshot, snap.Kernel)
	}
	checker, cerr := k.NewChecker(snap.Checker)
	if cerr != nil {
		return nil, fmt.Errorf("%w: %v", errSkipSnapshot, cerr)
	}
	if checker != nil && snap.Tuner == nil {
		return nil, fmt.Errorf("server: state: tenant %s/%s has a checker but no tuner",
			snap.Tenant, snap.Kernel)
	}
	// Re-run frontier selection for the restored tenant against *this node's*
	// frontier (the operating point is node-local hardware truth, so it is
	// re-derived, not persisted): same quality bound the tenant tuned to.
	target := t.defaults.Target
	if snap.Tuner != nil && snap.Tuner.Mode == core.ModeTOQ && snap.Tuner.TargetError > 0 {
		target = snap.Tuner.TargetError
	}
	var tuner *core.Tuner
	var drift *driftMonitor
	if checker != nil {
		// The drift history moved with the tenant (cluster handoff, or a
		// snapshot written by this build): restore the verdict ring so a
		// violating tenant is still violating on the new node. An older
		// snapshot without drift state gets a fresh monitor.
		tuner, drift = snap.Tuner, restoreDriftMonitor(snap.Drift)
	}
	ts, err := t.build(TenantKey{Tenant: snap.Tenant, Kernel: snap.Kernel}, k, snap.Checker, checker, tuner, drift, target)
	if err != nil {
		return nil, err
	}
	ts.elements, ts.fixed, ts.degraded = snap.Elements, snap.Fixed, snap.Degraded
	ts.engine.SetCarry(core.Carry{Elements: snap.CarryElements, Fired: snap.CarryFired})
	return ts, nil
}

// snapshots exports every live tenant×kernel whose key keep accepts, ordered
// by tenant then kernel (map iteration is not), each under its tenant lock.
func (t *Tenants) snapshots(keep func(TenantKey) bool) []tenantSnapshot {
	t.mu.Lock()
	var tenants []*tenant
	for key, ts := range t.m {
		if keep(key) {
			tenants = append(tenants, ts)
		}
	}
	t.mu.Unlock()
	var snaps []tenantSnapshot
	for _, ts := range tenants {
		ts.mu.Lock()
		snaps = append(snaps, ts.snapshotLocked())
		ts.mu.Unlock()
	}
	sort.Slice(snaps, func(a, b int) bool {
		if snaps[a].Tenant != snaps[b].Tenant {
			return snaps[a].Tenant < snaps[b].Tenant
		}
		return snaps[a].Kernel < snaps[b].Kernel
	})
	return snaps
}

// restore installs snaps, each replacing any live entry for its
// tenant×kernel, and counts the entries restored, skipped (errSkipSnapshot)
// and replaced. It stops at the first other error.
func (t *Tenants) restore(snaps []tenantSnapshot, reg *Registry) (restored, skipped, replaced int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, snap := range snaps {
		ts, rerr := t.restoreTenant(snap, reg)
		if errors.Is(rerr, errSkipSnapshot) {
			skipped++
			continue
		}
		if rerr != nil {
			return restored, skipped, replaced, rerr
		}
		if _, live := t.m[ts.key]; live {
			replaced++
		}
		t.m[ts.key] = ts
		restored++
	}
	return restored, skipped, replaced, nil
}

// SaveState writes the tenant tuner state as indented JSON, atomically
// (unique temp file in the destination directory + rename), so a crash
// mid-write never corrupts the previous snapshot and concurrent savers never
// interleave bytes.
func (t *Tenants) SaveState(path string) error {
	sf := stateFile{Version: stateVersion, Tenants: t.snapshots(func(TenantKey) bool { return true })}
	data, err := json.MarshalIndent(sf, "", "  ")
	if err != nil {
		return fmt.Errorf("server: state: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".rumba-state-*.tmp")
	if err != nil {
		return fmt.Errorf("server: state: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("server: state: %w", err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		return cleanup(err)
	}
	// CreateTemp opens 0600; the snapshot is an operational artifact like the
	// previous fixed-name temp file was.
	if err := tmp.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("server: state: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("server: state: %w", err)
	}
	return nil
}

// LoadState restores tenants from a snapshot written by SaveState. Entries
// whose kernel is not registered (the deployment dropped a model) are
// skipped, not fatal: restored reports how many tenants came back, skipped
// how many were dropped. A missing file restores nothing — a fresh
// deployment starts empty.
func (t *Tenants) LoadState(path string, reg *Registry) (restored, skipped int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("server: state: %w", err)
	}
	var sf stateFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return 0, 0, fmt.Errorf("server: state %s: %w", filepath.Base(path), err)
	}
	if sf.Version != stateVersion {
		return 0, 0, fmt.Errorf("server: state version %d, this build reads %d", sf.Version, stateVersion)
	}
	restored, skipped, _, err = t.restore(sf.Tenants, reg)
	return restored, skipped, err
}
