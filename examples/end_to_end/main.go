// End-to-end deduplication: the full integration pipeline the paper's
// introduction motivates. A dirty offer collection goes through an
// in-memory resolution store, which blocks each offer into candidate
// pairs, decides the confident ones with its local scorer, sends the
// uncertain ones to an LLM and clusters the matches into entities
// (e.g. for price tracking across vendors).
package main

import (
	"fmt"
	"log"

	"llm4em"
	"llm4em/internal/datasets"
	"llm4em/internal/entity"
)

func main() {
	// Build a dirty offer collection from the WDC Products test split:
	// both sides of the first pairs, so the collection contains
	// duplicates.
	ds, err := datasets.Load("wdc")
	if err != nil {
		log.Fatal(err)
	}
	var records []entity.Record
	seen := map[string]bool{}
	for _, p := range ds.Test[:150] {
		for _, r := range []entity.Record{p.A, p.B} {
			if !seen[r.ID] {
				records = append(records, r)
				seen[r.ID] = true
			}
		}
	}
	fmt.Printf("collection: %d offers\n", len(records))

	// The store matches with GPT-mini (the cost-efficient hosted model)
	// and keeps up to 5 blocking candidates per offer.
	model, err := llm4em.NewModel(llm4em.GPTMini)
	if err != nil {
		log.Fatal(err)
	}
	design, err := llm4em.DesignByName("domain-complex-force")
	if err != nil {
		log.Fatal(err)
	}
	store := llm4em.NewStore(model, llm4em.StoreOptions{MaxCandidates: 5, Design: design, Domain: ds.Schema.Domain})
	defer store.Close()

	// Resolve each offer against the offers before it, then add it:
	// each unordered pair is decided at most once.
	var cost llm4em.CostReport
	for _, r := range records {
		res, err := store.Resolve(r)
		if err != nil {
			log.Fatal(err)
		}
		cost.Add(res.Cost)
		if err := store.Add(r); err != nil {
			log.Fatal(err)
		}
	}
	total := len(records) * (len(records) - 1) / 2
	fmt.Printf("blocking: %d candidate pairs (%.1f%% of the %d possible)\n",
		cost.Candidates, 100*float64(cost.Candidates)/float64(total), total)
	fmt.Printf("matching: %d accepted and %d rejected locally, %d sent to GPT-mini\n",
		cost.LocalAccepts, cost.LocalRejects, cost.LLMPairs)

	// The store folded every match into its entities as it went.
	clusters := store.Snapshot()
	multi := 0
	var example []string
	for _, c := range clusters {
		if len(c) > 1 {
			multi++
			if example == nil {
				example = c
			}
		}
	}
	fmt.Printf("clustering: %d entities, %d with more than one offer\n", len(clusters), multi)
	if example != nil {
		fmt.Println("\nexample duplicate cluster:")
		for _, id := range example {
			r, _ := store.Record(id)
			fmt.Printf("  - %s\n", r.Serialize())
		}
	}
}
