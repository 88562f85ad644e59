// Package store is the disk persistence layer under the engine: a
// content-addressed record store for results. It also defines Lease,
// the claim type the cluster arbiter (internal/cluster) grants over
// keys.
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
// # Layout
//
// On-disk layout under the store root:
//
//	<root>/results/<key[:2]>/<key>.json   one record per key, sharded
//	<root>/tmp/                           staging area for atomic writes
//
// The cluster arbiter (internal/cluster) keeps its leases, sweep
// announcements, cancellations and compute journal under
// <root>/cluster/, beside — not inside — the store's own trees.
package store
