package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// decodeBounded runs decodeRecordsBody over body behind the same
// http.MaxBytesReader the handler installs, at the given bound.
func decodeBounded(body []byte, contentType string, limit int64) ([]recordJSON, error) {
	req := httptest.NewRequest("POST", "/v1/records", bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	req.Body = http.MaxBytesReader(httptest.NewRecorder(), req.Body, limit)
	return decodeRecordsBody(req)
}

// FuzzDecodeRecordsBody: the POST /v1/records body is untrusted. No
// input panics the decoder; every accepted body yields records within
// the per-record bounds, whose re-encoded {"records":[...]} wrapper
// decodes to the same records; and a body cut short by its bound fails
// with an error that maps to 413.
func FuzzDecodeRecordsBody(f *testing.F) {
	for _, seed := range []struct {
		body   string
		ndjson bool
	}{
		{seedBody, false},
		{`[{"id":"a1","attrs":[{"name":"title","value":"sony camera"}]},
		  {"id":"a2","attrs":[{"name":"title","value":"epson printer"}]}]`, false},
		{`{"id":"a3","attrs":[{"name":"title","value":"makita drill"}]}`, false},
		{`{"id":"a4","attrs":[{"name":"title","value":"canon eos camera"}]}
{"id":"a5","attrs":[{"name":"title","value":"bose soundlink speaker"}]}
`, true},
		{`{"records":[]}`, false},
		{`{"id":"a6","attrs":[{"name":"` + strings.Repeat("n", maxAttrNameBytes+1) + `","value":"x"}]}`, false},
		{`not json`, false},
	} {
		f.Add([]byte(seed.body), seed.ndjson)
	}
	f.Fuzz(func(t *testing.T, body []byte, ndjson bool) {
		contentType := "application/json"
		if ndjson {
			contentType = "application/x-ndjson"
		}
		recs, err := decodeBounded(body, contentType, maxRecordsBody)
		if err == nil {
			for _, r := range recs {
				if len(r.ID) > maxIDBytes || len(r.Attrs) > maxAttrs {
					t.Fatalf("accepted a record past a bound: %d-byte ID, %d attributes", len(r.ID), len(r.Attrs))
				}
				for _, a := range r.Attrs {
					if len(a.Name) > maxAttrNameBytes || len(a.Value) > maxAttrValueBytes {
						t.Fatalf("accepted a %d-byte attribute name or %d-byte value", len(a.Name), len(a.Value))
					}
				}
			}
			wrapped, merr := json.Marshal(map[string][]recordJSON{"records": recs})
			if merr != nil {
				t.Fatalf("re-encode accepted records: %v", merr)
			}
			again, derr := decodeBounded(wrapped, "application/json", maxRecordsBody)
			if derr != nil {
				t.Fatalf("re-encoded wrapper %s rejected: %v", wrapped, derr)
			}
			if !reflect.DeepEqual(again, recs) {
				t.Fatalf("wrapper round trip changed the records:\ngot  %+v\nwant %+v", again, recs)
			}
		}

		// The same body behind a bound it overruns by one byte.
		if len(body) == 0 {
			return
		}
		_, err = decodeBounded(body, contentType, int64(len(body)-1))
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			if got := bodyErrorStatus(err); got != http.StatusRequestEntityTooLarge {
				t.Fatalf("bound overrun maps to %d, want 413", got)
			}
		case err == nil:
			t.Fatal("a body past its bound was accepted")
		case !ndjson:
			// Whole-body shapes read to the bound before parsing.
			t.Fatalf("whole-body decode past its bound failed without MaxBytesError: %v", err)
		}
	})
}
