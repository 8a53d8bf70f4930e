package server

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// This file is the tenant state handoff surface: the export/import/remove
// endpoints the cluster router drives when tenant ownership moves between
// nodes (planned rebalance, node replacement). The wire format is the same
// tenantSnapshot the StatePath persistence writes, so a tuner trajectory
// that can survive a restart can survive a move — plus the drift monitor's
// closed-window history, which a restart deliberately resets but a handoff
// must preserve (the tenant did not stop receiving quality; its server just
// changed).
//
// The protocol is drain→snapshot→restore:
//
//  1. The router repoints the ring, so new requests for the tenant land on
//     the new owner.
//  2. GET /v1/tenants/{id}/state on the old owner. The export takes each
//     tenant×kernel mutex, which is the drain: an in-flight request finishes
//     before the snapshot is cut, so the trajectory is request-boundary
//     consistent.
//  3. PUT /v1/tenants/{id}/state on the new owner. Import overwrites any
//     state the tenant accumulated on the new owner inside the handoff
//     window — the authoritative trajectory wins over a few freshly-default
//     invocations.
//  4. DELETE /v1/tenants/{id}/state on the old owner, dropping the moved
//     state so a later rebalance back starts from the then-current snapshot,
//     not a stale one.

// TenantState is the /v1/tenants/{id}/state wire envelope.
type TenantState struct {
	Version int    `json:"version"`
	Tenant  string `json:"tenant"`
	// States holds one snapshot per kernel the tenant touches.
	States []tenantSnapshot `json:"states"`
}

// ImportReport is the PUT /v1/tenants/{id}/state reply.
type ImportReport struct {
	Tenant string `json:"tenant"`
	// Imported counts restored tenant×kernel entries; Skipped counts entries
	// this node could not restore (kernel not registered here — a
	// mixed-registry cluster is a deployment error the report surfaces).
	Imported int `json:"imported"`
	Skipped  int `json:"skipped"`
	// Replaced counts imported entries that overwrote live state on this
	// node (requests that raced the handoff window).
	Replaced int `json:"replaced"`
}

// exportTenant snapshots every tenant×kernel entry for one tenant id.
func (t *Tenants) exportTenant(id string) TenantState {
	states := t.snapshots(func(k TenantKey) bool { return k.Tenant == id })
	return TenantState{Version: stateVersion, Tenant: id, States: states}
}

// importTenant restores the envelope's snapshots, overwriting live entries
// for the same tenant×kernel.
func (t *Tenants) importTenant(id string, st TenantState, reg *Registry) (ImportReport, error) {
	rep := ImportReport{Tenant: id}
	if st.Version != stateVersion {
		return rep, fmt.Errorf("server: tenant state version %d, this build reads %d", st.Version, stateVersion)
	}
	for _, snap := range st.States {
		if snap.Tenant != id {
			return rep, fmt.Errorf("server: tenant state for %q carries entry for %q", id, snap.Tenant)
		}
	}
	var err error
	rep.Imported, rep.Skipped, rep.Replaced, err = t.restore(st.States, reg)
	return rep, err
}

// removeTenant drops every tenant×kernel entry for one tenant id, returning
// how many were removed.
func (t *Tenants) removeTenant(id string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	removed := 0
	for key := range t.m {
		if key.Tenant == id {
			delete(t.m, key)
			removed++
		}
	}
	return removed
}

// handleTenantStateGet is GET /v1/tenants/{id}/state: export for handoff
// (and for operators inspecting a live trajectory).
func (s *Server) handleTenantStateGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st := s.tenants.exportTenant(id)
	if len(st.States) == 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleTenantStatePut is PUT /v1/tenants/{id}/state: import after handoff.
func (s *Server) handleTenantStatePut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var st TenantState
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(body).Decode(&st); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad tenant state body: %w", err))
		return
	}
	rep, err := s.tenants.importTenant(id, st, s.reg)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleTenantStateDelete is DELETE /v1/tenants/{id}/state: drop the moved
// state on the old owner once the new owner has imported it.
func (s *Server) handleTenantStateDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	removed := s.tenants.removeTenant(id)
	if removed == 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown tenant %q", id))
		return
	}
	// The moved tenant's budget series go with it: the new owner rebuilds
	// them from the handed-off cumulative totals, and keeping them here would
	// leave a stale alert pinned to a tenant this node no longer serves.
	s.sloEngine.Forget(id)
	writeJSON(w, http.StatusOK, map[string]any{"tenant": id, "removed": removed})
}
