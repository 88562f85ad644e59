package engine

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeSpec feeds arbitrary submit bodies to DecodeSpec and spec
// validation, which read every POST /v1/jobs and /v1/sweeps body from
// the network. Neither may panic, and a spec that decodes and validates
// must survive a re-encode: decode again, validate again and keep its
// Fingerprint, the result-cache key. The committed corpus holds
// perfbench's three workload sweeps, one process spec per conformance
// fixture plus a cobra hitting-time spec, an experiment spec and an
// experiment sweep, and malformed bodies (an unknown field, a list where
// a number belongs, negative sizes).
func FuzzDecodeSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind string, body []byte) {
		spec, err := DecodeSpec(kind, body)
		if err != nil || spec.Validate() != nil {
			return
		}
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("re-encode %s spec: %v", kind, err)
		}
		again, err := DecodeSpec(kind, data)
		if err != nil {
			t.Fatalf("re-decode %s: %v", data, err)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("re-decoded %s fails validation: %v", data, err)
		}
		if a, b := Fingerprint(spec), Fingerprint(again); a != b {
			t.Fatalf("fingerprint of %s moved across a re-encode: %s -> %s", data, a, b)
		}
	})
}
