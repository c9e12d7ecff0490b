package main

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"llm4em"
)

// newStore builds the store emblock's defaults build: GPT-mini, the
// domain-complex-force design, 5 candidates per record.
func newStore(t *testing.T, domain llm4em.Domain) *llm4em.Store {
	t.Helper()
	client, err := llm4em.NewModel("GPT-mini")
	if err != nil {
		t.Fatal(err)
	}
	design, err := llm4em.DesignByName("domain-complex-force")
	if err != nil {
		t.Fatal(err)
	}
	store := llm4em.NewStore(client, llm4em.StoreOptions{MaxCandidates: 5, Design: design, Domain: domain})
	t.Cleanup(func() { store.Close() })
	return store
}

// TestResolveAllDemo runs the resolve-then-add loop over a small -demo
// collection: it resolves every record once, partitions the input IDs
// exactly as the store's Snapshot does, and decides most candidate
// pairs locally.
func TestResolveAllDemo(t *testing.T) {
	recs, domain := demoCollection(60)
	if len(recs) != 60 {
		t.Fatalf("demo collection has %d records, want 60", len(recs))
	}
	store := newStore(t, domain)
	clusters, cost, err := resolveAll(store, recs)
	if err != nil {
		t.Fatal(err)
	}
	if snap := store.Snapshot(); !reflect.DeepEqual(clusters, snap) {
		t.Errorf("clusters differ from Snapshot:\n got %v\nwant %v", clusters, snap)
	}
	var got, want []string
	for _, c := range clusters {
		got = append(got, c...)
	}
	for _, r := range recs {
		want = append(want, r.ID)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clusters are not a partition of the input IDs: %v", clusters)
	}
	if len(clusters) >= len(recs) {
		t.Errorf("%d entities from %d records: nothing matched", len(clusters), len(recs))
	}
	st := store.Stats()
	if st.Resolves != uint64(len(recs)) || st.Records != len(recs) {
		t.Errorf("Resolves/Records = %d/%d, want %d each", st.Resolves, st.Records, len(recs))
	}
	if cost.Candidates != st.Candidates || cost.LLMPairs != st.LLMPairs {
		t.Errorf("summed cost %d candidates, %d LLM pairs; store %d, %d", cost.Candidates, cost.LLMPairs, st.Candidates, st.LLMPairs)
	}
	if cost.LLMPairs == 0 || cost.LLMPairs >= cost.Candidates {
		t.Errorf("%d LLM pairs of %d candidate pairs, want some but fewer", cost.LLMPairs, cost.Candidates)
	}
}

// TestResolveAllRefusesBadIDs: a CSV whose IDs repeat, or whose ID is
// empty, stops the loop with the store's typed error.
func TestResolveAllRefusesBadIDs(t *testing.T) {
	for _, tc := range []struct {
		name, csv string
		want      error
	}{
		{"repeated", "id,title\na,sony camera\nb,canon printer\na,sony camera black\n", llm4em.ErrDuplicateRecordID},
		{"empty", "id,title\na,sony camera\n,canon printer\n", llm4em.ErrNoRecordID},
	} {
		recs, err := readRecords(strings.NewReader(tc.csv))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, _, err := resolveAll(newStore(t, llm4em.Product), recs); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}
