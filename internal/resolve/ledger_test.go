package resolve

import (
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

	// Every persisted field survives the binary payload.
	want := full.Persisted()
	if want == full || want.Candidates != full.Candidates {
		t.Fatalf("Persisted() = %+v of %+v: want the per-call fields gone, the rest kept", want, full)
	}
	payload, err := persist.EncodeResolve(persist.ResolveEntry{Seq: 1, Query: rec("q", "x"), Report: full})
	if err != nil {
		t.Fatal(err)
	}
	got, err := persist.DecodeResolve(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Report != want {
		t.Errorf("binary payload dropped a counter:\ngot  %+v\nwant %+v", got.Report, want)
	}
}
