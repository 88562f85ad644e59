// Package store is the disk persistence layer under the engine. Files
// is its one file layer, which the result store here and the graph
// artifact store (internal/graphstore) both build on. Store is the
// content-addressed record store for results. The package also defines
// Lease, the claim type the cluster arbiter (internal/cluster) grants
// over keys.
//
// # Files
//
// A Files tree holds one file per key, a lower-case hex content
// address, at <dir>/<key[:2]>/<key><ext>. Writes stage in a temp
// directory and commit with rename(2), so readers and concurrent
// writers — including writers in other processes — never observe a
// partial file; files are immutable once written, so a second write of
// a key replaces byte-identical data and last-rename-wins is harmless.
// Open removes staging files older than an hour (a crashed writer's
// leftovers; a younger one may be another process's write in flight)
// and scans the tree once into a size and saved-at accounting map,
// counting what it cannot use in Skipped. GC applies the installed
// Limits (age first, then size cap oldest-first) from that accounting
// without ever blocking writers; see Files.GC.
//
// # Records
//
// Store wraps each payload in a JSON envelope {version, key, sha256,
// saved_at, payload} keyed by the engine's SHA-256 spec fingerprint.
// The embedded checksum is checked by the open scan and again by every
// Get, so a corrupt or truncated file degrades to a cache miss (and a
// Skipped count) instead of an error.
//
// # Layout
//
// On-disk layout under a data directory:
//
//	<root>/results/<key[:2]>/<key>.json   one record per key, sharded
//	<root>/tmp/                           staging area for record writes
//	<root>/graphs/<fp[:2]>/<fp>.g         graph artifacts (internal/graphstore)
//	<root>/graphs/tmp/                    staging area for artifact writes
//
// The cluster arbiter (internal/cluster) keeps its leases, sweep
// announcements, cancellations and compute journal under
// <root>/cluster/, beside — not inside — the stores' own trees.
package store
