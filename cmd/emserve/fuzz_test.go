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

	"llm4em"
)

// boundedRequest is a POST of body behind the http.MaxBytesReader the
// handlers install, at the given bound.
func boundedRequest(path string, body []byte, contentType string, limit int64) *http.Request {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	req.Body = http.MaxBytesReader(httptest.NewRecorder(), req.Body, limit)
	return req
}

// parityBodies are the cases where encoding/json's decoding has
// corners the parser must reproduce: folded keys, nulls, deep unknown
// values, invalid UTF-8, lone surrogates, type mismatches and NDJSON
// values with no separator. Both fuzzers start from them.
var parityBodies = []string{
	`{"ID":"f1","ATTRS":[{"NAME":"title","Value":"sony camera"}]}`,
	`{"id":"f2","attr` + "\u017f" + `":[{"name":"title","value":"long s folds to s"}]}`,
	`{"recordſ":[{"id":"f3"}],"\u0069d":"escaped key"}`,
	`{"id":null,"attrs":null}`,
	`{"id":"n1","attrs":[null,{"name":null,"value":null},{}]}`,
	`[null,{"id":"n2","attrs":[]}]`,
	`{"records":null,"id":"n3"}`,
	`{"records":[],"id":"n4"}`,
	`null`,
	`{"id":"d1","x":` + strings.Repeat("[", 200) + strings.Repeat("]", 200) + `,"attrs":[]}`,
	`{"id":"d2","x":` + strings.Repeat(`{"y":[`, 4999) + strings.Repeat("]}", 4999) + `}`,
	`{"id":"d3","x":` + strings.Repeat(`{"y":[`, 5000) + strings.Repeat("]}", 5000) + `}`,
	`{"id":"n5","x":[-0.5e+10,0,1E3,true,false,null,"s\"\\\/\b\f\n\r\t",{"k":{}}]}`,
	"{\"id\":\"u1\xff\",\"attrs\":[{\"name\":\"t\xc3\",\"value\":\"\xed\xa0\x80 \xf0\x9f\x98\x80\"}]}",
	`{"id":"s\ud800x","attrs":[{"name":"t","value":"\udc00\ud83d\ude00\ud83d\ud83d\ude00\uD83D"}]}`,
	`{"id":"a"}{"id":"b"}null{"id":"c"}` + "\n\t {\"id\":\"d\"}\r\n",
	`{"id":"a","id":"b"}`,
	`{"id":1}`,
	`[{"attrs":{}}]`,
	`{"id":"x"} trailing`,
	`{"id":"x"}1`,
	`"str"`,
	`01`,
	``,
}

// sameDecode fails t unless the parser and the oracle agree on a body:
// both refuse it with one status, or both accept it with equal records.
// A duplicate key the parser refuses is its one deliberate tightening.
func sameDecode(t *testing.T, body []byte, got []llm4em.Record, err error, want []llm4em.Record, werr error) {
	t.Helper()
	if errors.Is(err, errDuplicateKey) {
		return
	}
	if (err == nil) != (werr == nil) {
		t.Fatalf("body %q: parser error %v, oracle error %v", body, err, werr)
	}
	if err != nil {
		if g, w := bodyErrorStatus(err), bodyErrorStatus(werr); g != w {
			t.Fatalf("body %q: parser status %d (%v), oracle %d (%v)", body, g, err, w, werr)
		}
		return
	}
	if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\nparser %+v\noracle %+v", body, got, want)
	}
}

// FuzzDecodeRecordsBody: the POST /v1/records body is untrusted. For
// every body and both content types the parser agrees with the
// encoding/json oracle; every accepted record is within the per-record
// bounds, and its re-encoded {"records":[...]} wrapper parses to the
// same records; a body cut short by its bound is 413 in every shape.
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
	for _, body := range parityBodies {
		f.Add([]byte(body), false)
		f.Add([]byte(body), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, ndjson bool) {
		contentType := "application/json"
		if ndjson {
			contentType = "application/x-ndjson"
		}
		recs, err := decodeRecordsBody(boundedRequest("/v1/records", body, contentType, maxRecordsBody))
		want, werr := oracleDecodeRecords(boundedRequest("/v1/records", body, contentType, maxRecordsBody))
		sameDecode(t, body, recs, err, want, werr)
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
			wire := make([]recordJSON, len(recs))
			for i, r := range recs {
				wire[i] = fromRecord(r)
			}
			wrapped, merr := json.Marshal(map[string][]recordJSON{"records": wire})
			if merr != nil {
				t.Fatalf("re-encode accepted records: %v", merr)
			}
			again, derr := parseRecords(wrapped, false)
			if derr != nil {
				t.Fatalf("re-encoded wrapper %s rejected: %v", wrapped, derr)
			}
			if len(again) != len(recs) || len(recs) > 0 && !reflect.DeepEqual(again, recs) {
				t.Fatalf("wrapper round trip changed the records:\ngot  %+v\nwant %+v", again, recs)
			}
		}

		// The same body behind a bound it overruns by one byte: the whole
		// body is read to the bound before it is parsed, in every shape.
		if len(body) == 0 {
			return
		}
		_, err = decodeRecordsBody(boundedRequest("/v1/records", body, contentType, int64(len(body)-1)))
		if got := bodyErrorStatus(err); err == nil || got != http.StatusRequestEntityTooLarge {
			t.Fatalf("a body past its bound: status %d (%v), want 413", got, err)
		}
	})
}

// FuzzDecodeResolveBody: the POST /v1/resolve body is untrusted. The
// parser agrees with the streaming encoding/json oracle on every body,
// and on the status of the same body behind a bound it overruns.
func FuzzDecodeResolveBody(f *testing.F) {
	for _, body := range append([]string{
		`{"id":"q1","attrs":[{"name":"title","value":"sony dsc120b cybershot camera"}]}`,
		`{"id":"q"}   {"id":"r"}`,
		"{\"id\":\"q\"} \r\n\t",
		`{"id":"q"}[`,
		`{"id":"q"} "open`,
		`{"id":"q"} 12`,
		`12 `,
		`nul`,
	}, parityBodies...) {
		f.Add([]byte(body), uint16(0))
		f.Add([]byte(body), uint16(3))
	}
	f.Fuzz(func(t *testing.T, body []byte, cut uint16) {
		req := func(limit int64) *http.Request {
			return boundedRequest("/v1/resolve", body, "application/json", limit)
		}
		got, err := decodeResolveBody(req(maxResolveBody))
		want, werr := oracleDecodeResolve(req(maxResolveBody))
		sameDecode(t, body, []llm4em.Record{got}, err, []llm4em.Record{want}, werr)
		if len(body) == 0 {
			return
		}
		// Past the bound the verdict depends on the bytes before it.
		limit := int64(len(body) - 1 - int(cut)%len(body))
		_, err = decodeResolveBody(req(limit))
		_, werr = oracleDecodeResolve(req(limit))
		if err == nil || werr == nil {
			t.Fatalf("body %q at bound %d: parser error %v, oracle error %v", body, limit, err, werr)
		}
		sameDecode(t, body[:limit], nil, err, nil, werr)
	})
}
