package store

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// FuzzDecodeRecord drives decodeRecord, the envelope decode the open
// scan and Get share, with arbitrary record bytes. It must never panic,
// a record it accepts must carry the key it was read under and a
// payload matching its checksum, and when the input is a JSON value it
// must also round-trip as a payload through encodeRecord, the bytes Put
// writes.
func FuzzDecodeRecord(f *testing.F) {
	k := key(1)
	rec, err := encodeRecord(k, []byte(`{"values":[3,5,8],"summary":{"mean":5.33}}`), time.Date(2026, 10, 18, 4, 0, 0, 0, time.UTC))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(k, rec)
	f.Add(k, rec[:len(rec)/2])
	f.Add(key(2), rec)
	f.Add(k, bytes.Replace(rec, []byte(`"version":1`), []byte(`"version":2`), 1))
	f.Add(k, []byte(`{"version":1,"key":"`+k+`","sha256":"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}`))
	f.Add("ab", []byte(` [1, 2,  {"a": "<&>"}] `))
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		if rec, err := decodeRecord(key, data); err == nil {
			if rec.Key != key {
				t.Fatalf("accepted a record for key %q under key %q", rec.Key, key)
			}
			if payloadSum(rec.Payload) != rec.SHA256 {
				t.Fatalf("accepted payload %q whose checksum is not %s", rec.Payload, rec.SHA256)
			}
		}
		if !validKey(key) || !json.Valid(data) {
			return
		}
		enc, err := encodeRecord(key, data, time.Unix(1_760_000_000, 0).UTC())
		if err != nil {
			t.Fatalf("encode valid JSON payload %q: %v", data, err)
		}
		rec, err := decodeRecord(key, enc)
		if err != nil {
			t.Fatalf("record Put writes for payload %q does not decode: %v", data, err)
		}
		if !bytes.Equal(rec.Payload, bytes.TrimSpace(data)) {
			t.Fatalf("payload %q read back as %q", data, rec.Payload)
		}
	})
}
