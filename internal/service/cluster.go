package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
)

// The /v1/cluster/* routes are the coordinator's arbiter on the wire:
// every -cluster-url member sends its lease claims, results, journal
// records, announcements, cancellations, and node heartbeats here, and
// the coordinator's own member calls the same arbiter in-process.
// Handlers split in two tiers:
//
//   - reads (journal, nodes, sweeps, cancels) are served by any
//     clustered daemon through its Backend — a runner transparently
//     proxies them to its coordinator;
//   - mutations demand the arbiter (WithClusterServer) and answer 503
//     unavailable elsewhere, so a runner can never be mistaken for the
//     arbiter.
//
// Lease mutations are fenced: a renew/release whose holder or token
// does not match the current lease answers 409 lease_lost and leaves
// the lease untouched; the check and the mutation are one critical
// section of the arbiter.

// maxResultBytes bounds one pushed result record.
const maxResultBytes = 128 << 20

// requireCluster guards the read tier.
func (s *Server) requireCluster(w http.ResponseWriter) bool {
	if s.cl == nil {
		writeError(w, http.StatusServiceUnavailable, codeUnavailable,
			fmt.Errorf("this daemon is not part of a cluster"),
			"start cobrad with -cluster (and -data-dir or -cluster-url)")
		return false
	}
	return true
}

// requireClusterServer guards the mutation tier.
func (s *Server) requireClusterServer(w http.ResponseWriter) bool {
	if s.cs == nil {
		writeError(w, http.StatusServiceUnavailable, codeUnavailable,
			fmt.Errorf("this daemon is not a cluster coordinator"),
			"point the cluster RPC client (-cluster-url) at the coordinator")
		return false
	}
	return true
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Errorf("bad request body: %w", err), "")
		return false
	}
	return true
}

// clusterRegisterNode serves POST /v1/cluster/nodes: a remote member's
// heartbeat. The coordinator stamps last-seen with its own clock, so
// liveness (three missed intervals) is immune to remote clock skew.
func (s *Server) clusterRegisterNode(w http.ResponseWriter, r *http.Request) {
	if !s.requireClusterServer(w) {
		return
	}
	var n cluster.NodeInfo
	if !decodeBody(w, r, &n) {
		return
	}
	if err := s.cs.RegisterNode(n); err != nil {
		writeClusterError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"registered": true, "node": n.ID})
}

// clusterUnregisterNode serves DELETE /v1/cluster/nodes/{id}: a
// graceful leave.
func (s *Server) clusterUnregisterNode(w http.ResponseWriter, r *http.Request) {
	if !s.requireClusterServer(w) {
		return
	}
	s.cs.UnregisterNode(r.PathValue("id"))
	writeJSON(w, http.StatusOK, map[string]interface{}{"removed": true})
}

// clusterNodes serves GET /v1/cluster/nodes: the raw registry view the
// HTTP backend polls (GET /v1/nodes keeps its human-facing shape).
func (s *Server) clusterNodes(w http.ResponseWriter, r *http.Request) {
	if !s.requireCluster(w) {
		return
	}
	nodes, err := s.cl.Nodes()
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err, "")
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"nodes": nodes})
}

// clusterAcquireLease serves POST /v1/cluster/leases. The response
// carries the fencing token the holder must present on renew/release.
func (s *Server) clusterAcquireLease(w http.ResponseWriter, r *http.Request) {
	if !s.requireClusterServer(w) {
		return
	}
	var req cluster.LeaseAcquireRequest
	if !decodeBody(w, r, &req) {
		return
	}
	lease, acquired, err := s.cs.AcquireLease(req.Key, req.Holder,
		time.Duration(req.TTLMillis)*time.Millisecond)
	if err != nil {
		writeClusterError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, cluster.LeaseResponse{Acquired: acquired, Lease: lease})
}

// clusterRenewLease serves POST /v1/cluster/leases/{key}/renew. A
// stale holder or token answers 409 lease_lost.
func (s *Server) clusterRenewLease(w http.ResponseWriter, r *http.Request) {
	if !s.requireClusterServer(w) {
		return
	}
	var req cluster.LeaseMutateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	lease, err := s.cs.RenewLease(r.PathValue("key"), req.Holder, req.Token,
		time.Duration(req.TTLMillis)*time.Millisecond)
	if err != nil {
		writeClusterError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, cluster.LeaseResponse{Acquired: true, Lease: lease})
}

// clusterReleaseLease serves POST /v1/cluster/leases/{key}/release.
// Releasing an already-gone lease succeeds (the request may be a
// retry whose first delivery worked); a mismatched holder or token
// answers 409 lease_lost and leaves the current lease standing.
func (s *Server) clusterReleaseLease(w http.ResponseWriter, r *http.Request) {
	if !s.requireClusterServer(w) {
		return
	}
	var req cluster.LeaseMutateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.cs.ReleaseLease(r.PathValue("key"), req.Holder, req.Token); err != nil {
		writeClusterError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"released": true})
}

// writeClusterError maps an arbiter or result-store error onto the
// envelope: a fencing rejection is 409 lease_lost, a malformed request
// (or a key or payload the store refuses) 400, and anything else — the
// arbiter or store failed to persist, or is shutting down — a
// retryable 500.
func writeClusterError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, cluster.ErrFenced):
		writeError(w, http.StatusConflict, codeLeaseLost, err,
			"the lease expired and was reclaimed; re-claim instead of renewing")
	case errors.Is(err, cluster.ErrInvalid), errors.Is(err, store.ErrInvalid):
		writeError(w, http.StatusBadRequest, codeBadRequest, err, "")
	default:
		writeError(w, http.StatusInternalServerError, codeInternal, err, "")
	}
}

// clusterGetResult serves GET /v1/cluster/results/{key}: the stored
// record's payload, verbatim.
func (s *Server) clusterGetResult(w http.ResponseWriter, r *http.Request) {
	if !s.requireClusterServer(w) {
		return
	}
	key := r.PathValue("key")
	data, ok, err := s.cs.GetResult(key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err, "")
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, codeNotFound,
			fmt.Errorf("no stored result for key %q", key), "")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// clusterPutResult serves PUT /v1/cluster/results/{key}: a runner
// pushing a computed record. Records are content-addressed, so a
// re-push after a lost response rewrites identical bytes — always
// safe.
func (s *Server) clusterPutResult(w http.ResponseWriter, r *http.Request) {
	if !s.requireClusterServer(w) {
		return
	}
	payload, err := io.ReadAll(io.LimitReader(r.Body, maxResultBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Errorf("read result payload: %w", err), "")
		return
	}
	if len(payload) == 0 || len(payload) > maxResultBytes {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Errorf("result payload must be 1..%d bytes, got %d", maxResultBytes, len(payload)), "")
		return
	}
	if err := s.cs.PutResult(r.PathValue("key"), payload); err != nil {
		writeClusterError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"stored": true})
}

// clusterRecordComputed serves POST /v1/cluster/journal: one
// exactly-once ledger entry, idempotent per (key, node) so redelivered
// RPCs collapse.
func (s *Server) clusterRecordComputed(w http.ResponseWriter, r *http.Request) {
	if !s.requireClusterServer(w) {
		return
	}
	var req cluster.JournalRecordRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.cs.RecordComputed(req.Key, req.Node); err != nil {
		writeClusterError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"recorded": true})
}

// clusterJournal serves GET /v1/cluster/journal: the compute ledger.
func (s *Server) clusterJournal(w http.ResponseWriter, r *http.Request) {
	if !s.requireCluster(w) {
		return
	}
	entries, err := s.cl.Journal()
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err, "")
		return
	}
	if entries == nil {
		entries = []cluster.JournalEntry{}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"entries": entries})
}

// clusterAnnounce serves POST /v1/cluster/sweeps: create-if-absent
// per fingerprint, so re-announcement cannot loop adoption.
func (s *Server) clusterAnnounce(w http.ResponseWriter, r *http.Request) {
	if !s.requireClusterServer(w) {
		return
	}
	var req cluster.AnnounceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.cs.Announce(req.Origin, req.Fingerprint, req.Kind, req.Spec, req.Priority); err != nil {
		writeClusterError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"announced": true})
}

// clusterAnnouncements serves GET /v1/cluster/sweeps.
func (s *Server) clusterAnnouncements(w http.ResponseWriter, r *http.Request) {
	if !s.requireCluster(w) {
		return
	}
	anns, err := s.cl.Announcements()
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err, "")
		return
	}
	if anns == nil {
		anns = []cluster.Announcement{}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"announcements": anns})
}

// clusterCompleteSweep serves DELETE /v1/cluster/sweeps/{fp}:
// retires an announcement; idempotent.
func (s *Server) clusterCompleteSweep(w http.ResponseWriter, r *http.Request) {
	if !s.requireClusterServer(w) {
		return
	}
	s.cs.CompleteSweep(r.PathValue("fp"))
	writeJSON(w, http.StatusOK, map[string]interface{}{"completed": true})
}

// clusterCancel serves POST /v1/cluster/cancels: publishes a
// cross-node cancellation that every member's watch loop applies to
// its local jobs.
func (s *Server) clusterCancel(w http.ResponseWriter, r *http.Request) {
	if !s.requireClusterServer(w) {
		return
	}
	var req cluster.CancelRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.cs.Cancel(req.Node, req.Fingerprint); err != nil {
		writeClusterError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"canceled": true})
}

// clusterCancellations serves GET /v1/cluster/cancels.
func (s *Server) clusterCancellations(w http.ResponseWriter, r *http.Request) {
	if !s.requireCluster(w) {
		return
	}
	recs, err := s.cl.Cancellations()
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, err, "")
		return
	}
	if recs == nil {
		recs = []cluster.CancelRecord{}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"cancellations": recs})
}
