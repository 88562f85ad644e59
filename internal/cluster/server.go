package cluster

import (
	"repro/internal/store"
)

// Server is the arbiter's face toward the /v1/cluster/* routes: the
// lease, registry, announcement, cancellation and journal operations of
// the arbiter a coordinator hosts, plus the coordinator's result store.
// The service handlers call it on behalf of remote members; the
// coordinator's own member calls the same arbiter in-process, so local
// workers and HTTP runners contend on one lease table, write one
// journal, and see one announcement queue.
//
// Lease mutations are fenced: renew and release demand the holder and
// the token minted at acquisition, checked and applied in one critical
// section, so a delayed or duplicated request from a holder whose lease
// expired (and was reclaimed) is rejected instead of clobbering the
// current claim. Leases and the token counter persist in state.json, so
// fencing survives a coordinator restart.
type Server struct {
	*arbiter
	st *store.Store
}

// NewServer returns the RPC face of the arbiter cl hosts, serving
// results from st, the store cl joined with. It returns nil for a
// member that joined over HTTP: such a member hosts no arbiter.
func NewServer(st *store.Store, cl *Member) *Server {
	if cl.host == nil {
		return nil
	}
	return &Server{arbiter: cl.host, st: st}
}

// Join adds a member to this arbiter in-process: another engine in the
// coordinator's process, claiming under its own node identity exactly
// as the coordinator's member and remote members do.
func (s *Server) Join(cfg Config) (*Member, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return startMember(cfg, s.arbiter)
}

// GetResult reads one content-addressed record from the store.
func (s *Server) GetResult(key string) ([]byte, bool, error) { return s.st.Get(key) }

// PutResult stores one record. Put is idempotent per key — records are
// content-addressed, so a re-push after a lost response rewrites the
// same bytes.
func (s *Server) PutResult(key string, payload []byte) error { return s.st.Put(key, payload) }
