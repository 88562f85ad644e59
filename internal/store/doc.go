// Package store is the disk persistence layer under the engine: a
// content-addressed record store for results, plus the advisory lease
// subsystem that lets multiple nodes share one store directory as a
// cluster.
//
// # Records
//
// Records are JSON payloads keyed by the engine's SHA-256 spec
// fingerprint, written with an atomic temp-file + rename protocol so
// readers and concurrent writers — including writers in other
// processes — never observe a partial record, and validated by an
// embedded payload checksum so a corrupt or truncated file degrades to
// a cache miss instead of an error. Records are immutable once
// written: a key is a content address, so a second Put of the same key
// overwrites byte-identical data and last-rename-wins is harmless.
//
// GC applies the installed Limits (size cap, max age) oldest-first
// without ever blocking writers; see Store.GC.
//
// # Leases
//
// AcquireLease, RenewLease, and ReleaseLease implement advisory,
// TTL-bounded mutual exclusion over keys, shared by every process on
// the directory. Each is a plain read-check-write of the lease file
// under one lock: leaseMu among this Store's goroutines and, on unix,
// an exclusive flock(2) on leases/.lock among processes. An acquire
// succeeds only over an absent or expired lease, so exactly one
// contender steals a dead holder's claim, and renewal and release are
// holder-only. Leases save duplicate work; they do not carry
// correctness — the records they guard are deterministic and
// content-addressed, so the worst protocol race costs a byte-identical
// recomputation.
//
// # Layout
//
// On-disk layout under the store root:
//
//	<root>/results/<key[:2]>/<key>.json   one record per key, sharded
//	<root>/leases/<key>.json              advisory lease records
//	<root>/leases/.lock                   flock(2) target serializing leases
//	<root>/tmp/                           staging area for atomic writes
//
// The cluster layer (internal/cluster) keeps its node registry, sweep
// announcements, and compute journal under <root>/cluster/, beside —
// not inside — the store's own trees.
package store
