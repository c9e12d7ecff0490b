package resolve

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"llm4em/internal/cost"
	"llm4em/internal/persist"
)

// fillDistinct sets every numeric field under v to its own non-zero
// value, so a field a fold or a codec forgets — or swaps with a
// neighbour — shows.
func fillDistinct(v reflect.Value, next *int) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Int:
		*next++
		v.SetInt(int64(*next))
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next) + 0.5)
	}
}

// TestLedgerDrift pins the one ledger type against its two field lists.
// A counter added to cost.Report but left out of Add, or out of the
// codec walk without being declared per-call in Persisted, fails here.
func TestLedgerDrift(t *testing.T) {
	var full cost.Report
	n := 0
	fillDistinct(reflect.ValueOf(&full).Elem(), &n)
	if n < 31 {
		t.Fatalf("filled %d numeric fields, the ledger has 31 or more", n)
	}

	// Add onto a zero value reproduces the report — here strateval's own
	// fold once dropped DeferredPairs.
	var sum cost.Report
	sum.Add(full)
	if sum != full {
		t.Errorf("Add dropped a counter:\ngot  %+v\nwant %+v", sum, full)
	}

	// Every persisted field survives the binary payload, and the JSON
	// payload a version-1 build would have written.
	want := full.Persisted()
	if want == full || want.Candidates != full.Candidates {
		t.Fatalf("Persisted() = %+v of %+v: want the per-call fields gone, the rest kept", want, full)
	}
	entry := persist.ResolveEntry{Seq: 1, Query: rec("q", "x"), Report: full}
	bin, err := persist.EncodeResolve(entry)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := json.Marshal(entry)
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{"binary": bin, "version-1 JSON": v1} {
		got, err := persist.DecodeResolve(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Report != want {
			t.Errorf("%s payload dropped a counter:\ngot  %+v\nwant %+v", name, got.Report, want)
		}
	}

	// The checked-in version-1 frame decodes to the report it was written
	// from: the values, and byte for byte when marshalled again, which
	// holds the JSON names and their order still.
	wal := filepath.Join(t.TempDir(), persist.WALFile)
	copyFile(t, filepath.Join("testdata", "v1store", persist.WALFile), wal)
	w, recovered, err := persist.OpenWAL(wal)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	checked := false
	for _, e := range recovered.Entries {
		if e.Type != persist.EntryResolve {
			continue
		}
		var raw struct{ Report json.RawMessage }
		if err := json.Unmarshal(e.Payload, &raw); err != nil {
			t.Fatalf("the fixture's resolve payload is not JSON: %v", err)
		}
		got, err := persist.DecodeResolve(e.Payload)
		if err != nil {
			t.Fatal(err)
		}
		usage := cost.Usage{Calls: 3, Pairs: 3, PromptTokens: 158, CompletionTokens: 6}
		if want := (cost.Report{Candidates: 3, LLMPairs: 3, PromptTokens: 158, CompletionTokens: 6, MatchUsage: usage}); got.Report != want {
			t.Errorf("version-1 fixture report = %+v, want %+v", got.Report, want)
		}
		if again, err := json.Marshal(got.Report); err != nil || !bytes.Equal(again, raw.Report) {
			t.Errorf("version-1 fixture report marshals to %s (%v), was written as %s", again, err, raw.Report)
		}
		checked = true
	}
	if !checked {
		t.Fatal("testdata/v1store/wal.log holds no resolve entry")
	}
}
