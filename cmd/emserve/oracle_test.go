package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"llm4em"
)

// The request-body decoding bodyParser replaced: encoding/json into
// recordJSON, then the per-record bound check. It is the parser's
// oracle: the fuzzers hold the two to the same verdicts, records and
// statuses.

// check rejects a record past a per-record bound.
func (r recordJSON) check() error {
	if len(r.ID) > maxIDBytes {
		return fmt.Errorf("record ID is %d bytes, over the %d-byte ID bound", len(r.ID), maxIDBytes)
	}
	if len(r.Attrs) > maxAttrs {
		return fmt.Errorf("record %q has %d attributes, over the %d-attribute bound", r.ID, len(r.Attrs), maxAttrs)
	}
	for _, a := range r.Attrs {
		if len(a.Name) > maxAttrNameBytes {
			return fmt.Errorf("record %q: an attribute name is %d bytes, over the %d-byte name bound", r.ID, len(a.Name), maxAttrNameBytes)
		}
		if len(a.Value) > maxAttrValueBytes {
			return fmt.Errorf("record %q: attribute %q is %d bytes, over the %d-byte value bound", r.ID, a.Name, len(a.Value), maxAttrValueBytes)
		}
	}
	return nil
}

func (r recordJSON) toRecord() llm4em.Record {
	rec := llm4em.Record{ID: r.ID}
	for _, a := range r.Attrs {
		rec.Attrs = append(rec.Attrs, llm4em.Attr{Name: a.Name, Value: a.Value})
	}
	return rec
}

// oracleDecodeRecords decodes a POST /v1/records body as the handler
// did before bodyParser.
func oracleDecodeRecords(r *http.Request) ([]llm4em.Record, error) {
	recs, err := oracleParseRecords(r)
	if err != nil {
		return nil, err
	}
	out := make([]llm4em.Record, len(recs))
	for i, rec := range recs {
		if err := rec.check(); err != nil {
			return nil, err
		}
		out[i] = rec.toRecord()
	}
	return out, nil
}

func oracleParseRecords(r *http.Request) ([]recordJSON, error) {
	if strings.Contains(r.Header.Get("Content-Type"), "ndjson") {
		dec := json.NewDecoder(r.Body)
		var out []recordJSON
		for {
			var rec recordJSON
			if err := dec.Decode(&rec); err == io.EOF {
				return out, nil
			} else if err != nil {
				return nil, fmt.Errorf("decode ndjson record %d: %w", len(out)+1, err)
			}
			out = append(out, rec)
		}
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var out []recordJSON
		if err := json.Unmarshal(body, &out); err != nil {
			return nil, fmt.Errorf("decode record array: %w", err)
		}
		return out, nil
	}
	// An object: either the {"records":[...]} wrapper or one record.
	var obj struct {
		Records []recordJSON `json:"records"`
		ID      string       `json:"id"`
		Attrs   []attrJSON   `json:"attrs"`
	}
	if err := json.Unmarshal(body, &obj); err != nil {
		return nil, fmt.Errorf("decode body: %w", err)
	}
	if obj.Records != nil {
		return obj.Records, nil
	}
	if obj.ID != "" || obj.Attrs != nil {
		return []recordJSON{{ID: obj.ID, Attrs: obj.Attrs}}, nil
	}
	return nil, nil
}

// oracleDecodeResolve decodes a POST /v1/resolve body as the handler
// did before bodyParser: a streaming decode of one record, then a token
// read that must find the end of the body.
func oracleDecodeResolve(r *http.Request) (llm4em.Record, error) {
	var body recordJSON
	dec := json.NewDecoder(r.Body)
	err := dec.Decode(&body)
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			err = nil
		} else if err == nil {
			err = errors.New("trailing data after the record")
		}
	}
	if err != nil {
		return llm4em.Record{}, fmt.Errorf("decode body: %w", err)
	}
	if err := body.check(); err != nil {
		return llm4em.Record{}, err
	}
	return body.toRecord(), nil
}
