// Package engine is the asynchronous simulation job engine: a bounded
// worker pool fed by a priority FIFO queue, with per-job cancellation,
// progress reporting, a content-addressed result cache, server-side
// sweep fan-out, and — when clustered — lease-arbitrated execution
// shared with every other engine of the cluster.
//
// The engine is the single execution core shared by cobractl's batch
// commands (cmd/cobractl via client.Execute) and the cobrad HTTP daemon
// (cmd/cobrad via internal/service).
//
// # Jobs and specs
//
// Work is described by Spec values: "process", "experiment", and
// "sweep". A Spec must be a
// pure function of its exported fields: two specs with equal
// Fingerprints produce equal Outputs. That determinism is what makes
// everything downstream sound — the in-memory LRU cache, the
// persistent store (Options.Store), and the cluster's exactly-once
// accounting all key on Fingerprint(spec), a SHA-256 over the job kind
// and the spec's canonical JSON.
//
// Submit enqueues a job and never blocks on execution; RunSync is the
// submit-and-wait convenience the CLIs use, and runs its job without a
// tracer, since its caller reads only the output. Job exposes Wait,
// Output, Snapshot, and Watch (coalesced status subscriptions that back
// the service's SSE feed). A finishing job seals its frame series, so a
// terminal job keeps its frames packed instead of the ring they were
// recorded into. Terminal jobs are evicted from the job table after
// Options.JobTTL; their results remain reachable by resubmitting the
// same spec.
//
// # Sweeps
//
// A *SweepSpec fans out server-side into child point jobs over a
// parameter grid (processes × families × ks × sizes, or experiment
// IDs). The coordinator runs off the worker pool — fan-out cannot
// self-deadlock a single-worker engine — throttles against the bounded
// queue, aggregates child progress (sweepProgressUnit units per
// point), propagates cancellation, and caches the aggregate under the
// sweep's own fingerprint.
//
// Sweeps are resumable: each child submission first consults the cache
// and the persistent store, so a sweep whose parent died — or that is
// resubmitted after a restart — serves the already-stored points
// immediately (counted in the parent Status as "resumed") and
// schedules only the missing ones.
//
// # Cluster execution
//
// With Options.Cluster set, workers arbitrate every point through the
// cluster's arbiter before running it: adopt the stored result if a peer
// already computed it; else claim the point's lease and compute,
// heartbeating the lease and persisting the result before releasing;
// else wait out the holder, reclaiming its lease if it expires (a dead
// node). Sweeps are announced to the cluster so runner nodes adopt
// and help drain them. See internal/cluster for the coordination
// primitives and the exactly-once journal.
package engine
