package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"llm4em"
	"llm4em/internal/datasets"
)

// TestDuplicateKeyRefused pins the parser's one tightening over
// encoding/json: an object that names a field twice — by the same key
// or by one that folds to it — is answered 400, where encoding/json
// kept the last value and merged a repeated attribute list element by
// element into the first.
func TestDuplicateKeyRefused(t *testing.T) {
	merged := `{"records":[{"id":"a","attrs":[{"name":"a"}],"attrs":[{"value":"v"}]}]}`
	want := []llm4em.Record{{ID: "a", Attrs: []llm4em.Attr{{Name: "a", Value: "v"}}}}
	if got, err := oracleDecodeRecords(boundedRequest("/v1/records", []byte(merged), "application/json", maxRecordsBody)); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("encoding/json decoded %s to %+v (%v), want the merged %+v", merged, got, err, want)
	}
	for _, body := range []string{
		merged,
		`{"id":"a","ID":"b"}`,
		`[{"id":"a","attrs":[{"name":"t","value":"x","Value":"y"}]}]`,
		`{"records":[],"records":[{"id":"a"}]}`,
	} {
		_, err := decodeRecordsBody(boundedRequest("/v1/records", []byte(body), "application/json", maxRecordsBody))
		if !errors.Is(err, errDuplicateKey) || bodyErrorStatus(err) != http.StatusBadRequest {
			t.Errorf("records body %s: %v, want a 400 duplicate-key error", body, err)
		}
	}
	_, err := decodeResolveBody(boundedRequest("/v1/resolve", []byte(`{"id":"q","attrſ":[],"attrs":[]}`), "application/json", maxResolveBody))
	if !errors.Is(err, errDuplicateKey) {
		t.Errorf("resolve body with a folded duplicate: %v, want a duplicate-key error", err)
	}
}

// TestNDJSONOverflowIs413 pins the other tightening: an NDJSON body
// past its bound is 413 whatever its records hold, as the whole-body
// shapes always were. The streaming decoder answered 400 when a record
// before the bound was malformed.
func TestNDJSONOverflowIs413(t *testing.T) {
	body := []byte(`{"id":1}` + "\n" + `{"id":"b","attrs":[{"name":"title","value":"` + strings.Repeat("x", 64) + `"}]}` + "\n")
	limit := int64(len(body) - 8)
	_, werr := oracleDecodeRecords(boundedRequest("/v1/records", body, "application/x-ndjson", limit))
	if bodyErrorStatus(werr) != http.StatusBadRequest {
		t.Fatalf("encoding/json: %v, want a 400 decode error", werr)
	}
	_, err := decodeRecordsBody(boundedRequest("/v1/records", body, "application/x-ndjson", limit))
	if bodyErrorStatus(err) != http.StatusRequestEntityTooLarge {
		t.Errorf("parser: %v, want 413", err)
	}
}

// wdcBatch is one 200-record NDJSON batch of WDC offers, the B sides of
// datasets.GroupedPairs, encoded as the benchmark in bench/ sends its
// preload.
func wdcBatch(b *testing.B) []byte {
	pairs, err := datasets.GroupedPairs("wdc", "1", 100, 2)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	for _, p := range pairs {
		line, err := json.Marshal(fromRecord(p.B))
		if err != nil {
			b.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// benchmarkDecode times decode over one NDJSON batch behind the records
// bound, as addRecords runs it before AddBatch.
func benchmarkDecode(b *testing.B, decode func(*http.Request) ([]llm4em.Record, error)) {
	body := wdcBatch(b)
	header := http.Header{"Content-Type": {"application/x-ndjson"}}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		r := &http.Request{Header: header, ContentLength: int64(len(body))}
		r.Body = http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), maxRecordsBody)
		recs, err := decode(r)
		if err != nil || len(recs) != 200 {
			b.Fatalf("decoded %d records: %v", len(recs), err)
		}
	}
}

// BenchmarkDecodeRecordsBody times the body parser on one 200-record
// batch; the regression gate budgets its allocations.
func BenchmarkDecodeRecordsBody(b *testing.B) { benchmarkDecode(b, decodeRecordsBody) }

// BenchmarkDecodeRecordsBodyOracle times the encoding/json decoding the
// parser replaced, on the same batch.
func BenchmarkDecodeRecordsBodyOracle(b *testing.B) { benchmarkDecode(b, oracleDecodeRecords) }
