// Package service exposes the simulation engine over an HTTP/JSON API:
// the interface cobrad serves. docs/API.md is the operator-facing
// reference for this surface; scripts/docs_check.sh keeps the two in
// sync against Routes, ErrorCodes and the families /metrics exposes.
//
// # Endpoints
//
//	GET    /v1/processes        registered processes with parameter schemas
//	GET    /v1/nodes            cluster membership and liveness
//	POST   /v1/jobs             submit a job: {"kind": ..., "priority": ..., "spec": {...}}
//	GET    /v1/jobs             list jobs (most recent first; ?status= filters)
//	GET    /v1/jobs/{id}        job status and progress
//	GET    /v1/jobs/{id}/result output of a finished job
//	GET    /v1/jobs/{id}/events live status stream (Server-Sent Events)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	POST   /v1/sweeps           submit a sweep: {"priority": ..., "spec": {<SweepSpec>}}
//	GET    /v1/sweeps/{id}      sweep status with per-child statuses
//	GET    /healthz             liveness probe
//	GET    /metrics             engine counters in Prometheus text format
//
// A sweep is also a job: /v1/jobs/{id}, /result, /events, and DELETE
// all work on a sweep ID, and POST /v1/jobs accepts {"kind": "sweep"}.
// The /v1/sweeps routes add the fan-out view (child statuses) and a
// sweep-typed submission path.
//
// # Events
//
// The events stream emits "status" events whose data is the job Status
// JSON, coalesced to the latest state, and "frames" events carrying the
// job's new series frames, which the stream reads at its own cursor. It
// ends after the terminal status, sent after the last frames; comment
// keep-alives are sent while a job is idle in queue.
//
// # Errors
//
// All responses are JSON except /metrics and /events. Every error, on
// every handler, uses the uniform envelope
//
//	{"error": {"code": "...", "message": "...", "detail": "..."}}
//
// with a matching status code: 400 bad_request for malformed
// submissions, 404 not_found for unknown jobs, 409 not_finished for
// results requested before completion, 422 job_failed for results of
// failed or canceled jobs, 503 unavailable when the queue is full or
// the engine is shutting down, and 500 internal otherwise. The
// machine-readable code is what the client SDK switches on; message is
// human text; detail, when present, is an actionable hint.
package service
